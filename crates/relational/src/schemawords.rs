//! The schema-word index: the schema side of keyword scoring.
//!
//! Algorithm 3 scores every keyword against relation and attribute names.
//! Those names are fixed for a database's life, so the index splits each of
//! them once into ids of distinct schema words, each prepared once
//! (lower-cased, Porter-stemmed and embedded, with its norm; see
//! [`nlp::Vocabulary`]).  Beside the words it holds what keyword pruning
//! needs per schema element: each attribute's key penalty and every
//! element's *rank*, its position in the order in which pruned candidate
//! lists break score ties (`0:<relation>` before `1:<relation>.<attribute>`,
//! compared as strings).
//!
//! A [`Database`](crate::Database) builds the index when it is created and
//! shares it with every clone.

use crate::catalog::{AttributeRef, Schema};
use nlp::Vocabulary;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Similarity discount applied to key-like attributes (`id`, `*_id`, and the
/// short surrogate keys `pid` / `aid` / ...): users refer to entities by
/// their names and titles, not by their identifiers, so a key should only win
/// a mapping when the query log (or an aggregate) supports it.
pub fn key_attribute_penalty(attribute: &str) -> f64 {
    let name = attribute.to_lowercase();
    let key_like = name == "id"
        || name.ends_with("_id")
        || name == "citing"
        || name == "cited"
        || (name.len() <= 4 && name.ends_with("id"));
    if key_like {
        0.55
    } else {
        1.0
    }
}

/// A relation of the index.
#[derive(Debug)]
pub struct SchemaRelation {
    /// The relation name's id in [`SchemaWords::vocabulary`].
    pub name: usize,
    /// The relation's tie-break rank.
    pub rank: u32,
    attributes: Range<usize>,
}

/// An attribute of the index.
#[derive(Debug)]
pub struct SchemaAttribute {
    /// Position of the attribute's relation in catalog order.
    pub relation: usize,
    /// The attribute name's id in [`SchemaWords::vocabulary`].
    pub name: usize,
    /// [`key_attribute_penalty`] of the attribute name.
    pub penalty: f64,
    /// The attribute's tie-break rank; every attribute ranks after every
    /// relation.
    pub rank: u32,
}

/// The schema-word index of one database (see the module docs).
#[derive(Debug)]
pub struct SchemaWords {
    vocabulary: Vocabulary,
    relations: Vec<SchemaRelation>,
    attributes: Vec<SchemaAttribute>,
    relation_ids: HashMap<String, usize>,
    stems: HashSet<String>,
}

impl SchemaWords {
    /// Index the relation and attribute names of a schema.
    pub fn new(schema: &Schema) -> Self {
        let mut vocabulary = Vocabulary::new();
        let mut relations = Vec::with_capacity(schema.relations.len());
        let mut attributes = Vec::with_capacity(schema.attribute_count());
        let mut relation_ids = HashMap::new();
        for (r, relation) in schema.relations.iter().enumerate() {
            let start = attributes.len();
            for attribute in &relation.attributes {
                attributes.push(SchemaAttribute {
                    relation: r,
                    name: vocabulary.insert(&attribute.name),
                    penalty: key_attribute_penalty(&attribute.name),
                    rank: 0,
                });
            }
            relations.push(SchemaRelation {
                name: vocabulary.insert(&relation.name),
                rank: 0,
                attributes: start..attributes.len(),
            });
            relation_ids.entry(relation.name.clone()).or_insert(r);
        }
        let relation_keys: Vec<String> = schema.relations.iter().map(|r| r.name.clone()).collect();
        for (relation, rank) in relations.iter_mut().zip(ranks(&relation_keys)) {
            relation.rank = rank;
        }
        let attribute_keys: Vec<String> = schema
            .attribute_refs()
            .iter()
            .map(AttributeRef::to_string)
            .collect();
        let offset = relations.len() as u32;
        for (attribute, rank) in attributes.iter_mut().zip(ranks(&attribute_keys)) {
            attribute.rank = offset + rank;
        }
        let stems = vocabulary
            .words()
            .iter()
            .map(|w| w.stem().to_string())
            .collect();
        SchemaWords {
            vocabulary,
            relations,
            attributes,
            relation_ids,
            stems,
        }
    }

    /// The relation and attribute names, split into prepared words.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The relation named exactly `name`.
    pub fn relation(&self, name: &str) -> Option<&SchemaRelation> {
        self.relation_ids.get(name).map(|&r| &self.relations[r])
    }

    /// The attribute named exactly `attr`.
    pub fn attribute(&self, attr: &AttributeRef) -> Option<&SchemaAttribute> {
        let relation = self.relation(&attr.relation)?;
        self.attributes[relation.attributes.clone()]
            .iter()
            .find(|a| self.vocabulary.name(a.name) == attr.attribute)
    }

    /// The relation at a catalog position.
    pub fn relation_at(&self, position: usize) -> &SchemaRelation {
        &self.relations[position]
    }

    /// True when some word of a relation or attribute name has this Porter
    /// stem.
    pub fn has_stem(&self, stem: &str) -> bool {
        self.stems.contains(stem)
    }
}

/// The rank of each key: how many keys sort strictly before it.
fn ranks(keys: &[String]) -> Vec<u32> {
    let mut sorted: Vec<&str> = keys.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    keys.iter()
        .map(|k| sorted.partition_point(|s| *s < k.as_str()) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::builder("test")
            .relation(
                "publication",
                &[
                    ("pid", DataType::Integer),
                    ("title", DataType::Text),
                    ("journal_id", DataType::Integer),
                ],
                Some("pid"),
            )
            .relation(
                "journal",
                &[("jid", DataType::Integer), ("name", DataType::Text)],
                Some("jid"),
            )
            .build()
    }

    #[test]
    fn names_share_distinct_words() {
        let index = SchemaWords::new(&schema());
        let words: Vec<&str> = index
            .vocabulary()
            .words()
            .iter()
            .map(|w| w.lower())
            .collect();
        // `journal_id` and `journal` share the word `journal`.
        assert_eq!(
            words,
            [
                "pid",
                "title",
                "journal",
                "id",
                "publication",
                "jid",
                "name"
            ]
        );
        assert!(index.has_stem("public"));
        assert!(!index.has_stem("author"));
    }

    #[test]
    fn ranks_follow_the_tie_break_strings() {
        let index = SchemaWords::new(&schema());
        let rank = |r: &str, a: &str| index.attribute(&AttributeRef::new(r, a)).unwrap().rank;
        assert_eq!(index.relation("journal").unwrap().rank, 0);
        assert_eq!(index.relation("publication").unwrap().rank, 1);
        // "journal.jid" < "journal.name" < "publication.journal_id" < ...
        assert_eq!(rank("journal", "jid"), 2);
        assert_eq!(rank("journal", "name"), 3);
        assert_eq!(rank("publication", "journal_id"), 4);
        assert_eq!(rank("publication", "pid"), 5);
        assert_eq!(rank("publication", "title"), 6);
        // Lookups are exact: the scorer must see the very name it scores.
        assert!(index.relation("Journal").is_none());
        assert!(index
            .attribute(&AttributeRef::new("journal", "Name"))
            .is_none());
    }

    #[test]
    fn key_like_attributes_are_penalised() {
        let index = SchemaWords::new(&schema());
        let penalty = |r: &str, a: &str| index.attribute(&AttributeRef::new(r, a)).unwrap().penalty;
        assert_eq!(penalty("publication", "pid"), 0.55);
        assert_eq!(penalty("publication", "journal_id"), 0.55);
        assert_eq!(penalty("publication", "title"), 1.0);
        assert_eq!(key_attribute_penalty("Citing"), 0.55);
    }
}
