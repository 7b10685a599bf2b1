//! Benchmark case and dataset types, plus the cross-validation protocol.

use nlidb::Nlq;
use relational::{AttributeRef, Database, DatasetStats};
use sqlparse::{parse_query, Aggregate, BinOp, Literal, Query};
use std::sync::Arc;
use templar_core::{Keyword, KeywordMetadata, MappedElement, QueryLog};

/// A rough classification of a benchmark case, used for reporting and for
/// sanity checks on the benchmark composition (not visible to the systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Single-relation selections / projections.
    Simple,
    /// Multi-relation queries whose gold join path is also the shortest.
    EasyJoin,
    /// Queries whose gold join path is longer than the shortest path
    /// (join-path ambiguity; Example 2 of the paper).
    JoinAmbiguous,
    /// Queries with value or attribute ambiguity that word similarity alone
    /// cannot resolve (Example 1 / Example 5).
    KeywordAmbiguous,
    /// Aggregation / grouping queries.
    Aggregate,
    /// Self-join queries (Example 7).
    SelfJoin,
}

/// One NLQ-SQL benchmark case.
#[derive(Debug, Clone)]
pub struct BenchmarkCase {
    /// Case identifier within its dataset.
    pub id: usize,
    /// The natural-language query with its gold hand parse.
    pub nlq: Nlq,
    /// The gold SQL translation.
    pub gold_sql: Query,
    /// The case kind (for composition reporting only).
    pub kind: CaseKind,
}

/// A cross-validation fold: a training query log and held-out test cases.
#[derive(Debug, Clone)]
pub struct Fold {
    /// Fold index (0-based).
    pub index: usize,
    /// The SQL query log assembled from the training folds' gold SQL.
    pub log: QueryLog,
    /// Indices (into `Dataset::cases`) of the held-out test cases.
    pub test_case_ids: Vec<usize>,
}

/// A benchmark dataset: database + NLQ-SQL cases.
#[derive(Clone)]
pub struct Dataset {
    /// Dataset name (`MAS`, `Yelp`, `IMDB`).
    pub name: String,
    /// The populated database.
    pub db: Arc<Database>,
    /// The benchmark cases.
    pub cases: Vec<BenchmarkCase>,
}

impl Dataset {
    /// The MAS dataset.
    pub fn mas() -> Dataset {
        crate::mas::dataset()
    }

    /// The Yelp dataset.
    pub fn yelp() -> Dataset {
        crate::yelp::dataset()
    }

    /// The IMDB dataset.
    pub fn imdb() -> Dataset {
        crate::imdb::dataset()
    }

    /// All three benchmark datasets, in the order of Table II.
    pub fn all() -> Vec<Dataset> {
        vec![Self::mas(), Self::yelp(), Self::imdb()]
    }

    /// Table II statistics for this dataset.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::from_database(&self.name, &self.db, self.cases.len())
    }

    /// Split the benchmark into `k` cross-validation folds
    /// (Section VII-A.4).  Assignment is deterministic (round-robin over case
    /// ids) so that every run of every experiment sees identical folds.  For
    /// each fold, the query log is the gold SQL of the other `k − 1` folds.
    pub fn folds(&self, k: usize) -> Vec<Fold> {
        assert!(k >= 2, "cross-validation needs at least 2 folds");
        let mut folds = Vec::with_capacity(k);
        for fold_index in 0..k {
            let mut log = QueryLog::new();
            let mut test_case_ids = Vec::new();
            for case in &self.cases {
                if case.id % k == fold_index {
                    test_case_ids.push(case.id);
                } else {
                    log.push(case.gold_sql.clone());
                }
            }
            folds.push(Fold {
                index: fold_index,
                log,
                test_case_ids,
            });
        }
        folds
    }

    /// Look up a case by id.
    pub fn case(&self, id: usize) -> Option<&BenchmarkCase> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// The full query log (all cases) — used by examples and benches that do
    /// not need the cross-validation protocol.
    pub fn full_log(&self) -> QueryLog {
        let mut log = QueryLog::new();
        for case in &self.cases {
            log.push(case.gold_sql.clone());
        }
        log
    }

    /// Count cases per kind (for composition reporting).
    pub fn kind_counts(&self) -> Vec<(CaseKind, usize)> {
        let kinds = [
            CaseKind::Simple,
            CaseKind::EasyJoin,
            CaseKind::JoinAmbiguous,
            CaseKind::KeywordAmbiguous,
            CaseKind::Aggregate,
            CaseKind::SelfJoin,
        ];
        kinds
            .into_iter()
            .map(|k| (k, self.cases.iter().filter(|c| c.kind == k).count()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Case construction helpers shared by the three dataset modules.
// ---------------------------------------------------------------------------

/// A (keyword, metadata, gold element) triple used to assemble cases.
pub(crate) type GoldKeyword = (Keyword, KeywordMetadata, MappedElement);

/// Build a benchmark case.  Panics when the gold SQL does not parse — gold
/// SQL is static program data, so failing fast is correct.
pub(crate) fn case(
    id: usize,
    text: impl Into<String>,
    keywords: Vec<GoldKeyword>,
    gold_sql: &str,
    kind: CaseKind,
    hard_for_parser: bool,
) -> BenchmarkCase {
    let gold_sql_parsed =
        parse_query(gold_sql).unwrap_or_else(|e| panic!("invalid gold SQL `{gold_sql}`: {e}"));
    let (kw, gold): (Vec<_>, Vec<_>) = keywords.into_iter().map(|(k, m, g)| ((k, m), g)).unzip();
    let nlq = Nlq::new(text, kw, gold).with_parser_difficulty(hard_for_parser);
    BenchmarkCase {
        id,
        nlq,
        gold_sql: gold_sql_parsed,
        kind,
    }
}

/// A projection keyword mapped to an attribute.
pub(crate) fn select_attr(text: &str, rel: &str, attr: &str) -> GoldKeyword {
    (
        Keyword::new(text),
        KeywordMetadata::select(),
        MappedElement::Attribute {
            attr: AttributeRef::new(rel, attr),
            aggregates: vec![],
            group_by: false,
        },
    )
}

/// A projection keyword mapped to an aggregated attribute.
pub(crate) fn select_agg(text: &str, rel: &str, attr: &str, agg: Aggregate) -> GoldKeyword {
    (
        Keyword::new(text),
        KeywordMetadata::select().with_aggregates(vec![agg]),
        MappedElement::Attribute {
            attr: AttributeRef::new(rel, attr),
            aggregates: vec![agg],
            group_by: false,
        },
    )
}

/// A projection keyword mapped to a grouped attribute.
pub(crate) fn select_group(text: &str, rel: &str, attr: &str) -> GoldKeyword {
    (
        Keyword::new(text),
        KeywordMetadata::select().with_group_by(),
        MappedElement::Attribute {
            attr: AttributeRef::new(rel, attr),
            aggregates: vec![],
            group_by: true,
        },
    )
}

/// A value keyword mapped to an equality predicate on a text attribute.
pub(crate) fn filter_eq(text: &str, rel: &str, attr: &str, value: &str) -> GoldKeyword {
    (
        Keyword::new(text),
        KeywordMetadata::filter(),
        MappedElement::Predicate {
            attr: AttributeRef::new(rel, attr),
            op: BinOp::Eq,
            value: Literal::String(value.to_string()),
        },
    )
}

/// A numeric keyword mapped to a comparison predicate.
pub(crate) fn filter_num(text: &str, rel: &str, attr: &str, op: BinOp, value: f64) -> GoldKeyword {
    (
        Keyword::new(text),
        KeywordMetadata::filter_with_op(op),
        MappedElement::Predicate {
            attr: AttributeRef::new(rel, attr),
            op,
            value: Literal::Number(value),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        // Reuse the MAS builder but only check generic fold mechanics here.
        Dataset::mas()
    }

    #[test]
    fn folds_partition_the_cases() {
        let d = tiny_dataset();
        let folds = d.folds(4);
        assert_eq!(folds.len(), 4);
        let total: usize = folds.iter().map(|f| f.test_case_ids.len()).sum();
        assert_eq!(total, d.cases.len());
        // Every case appears in exactly one test fold.
        let mut all_ids: Vec<usize> = folds
            .iter()
            .flat_map(|f| f.test_case_ids.iter().copied())
            .collect();
        all_ids.sort_unstable();
        let mut expected: Vec<usize> = d.cases.iter().map(|c| c.id).collect();
        expected.sort_unstable();
        assert_eq!(all_ids, expected);
    }

    #[test]
    fn fold_logs_exclude_the_test_cases() {
        let d = tiny_dataset();
        let folds = d.folds(4);
        for f in &folds {
            assert_eq!(f.log.len(), d.cases.len() - f.test_case_ids.len());
        }
    }

    #[test]
    fn folds_are_deterministic() {
        let d = tiny_dataset();
        let a = d.folds(4);
        let b = d.folds(4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.test_case_ids, y.test_case_ids);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn single_fold_is_rejected() {
        let _ = tiny_dataset().folds(1);
    }
}
