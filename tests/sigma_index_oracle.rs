//! Oracle for σ-scoring against the schema-word index: every score the
//! indexed path computes must carry the same bits as
//! `TextSimilarity::similarity` on the two strings, and `score_and_prune`
//! must return the list the plain-similarity path returns.

use datasets::Dataset;
use nlp::{PhraseScorer, SimilarityModel, TextSimilarity, Vocabulary};
use proptest::prelude::*;
use relational::{Database, Schema};
use std::collections::BTreeSet;
use templar_core::{
    Keyword, KeywordMapper, KeywordMetadata, MappedElement, MappingCandidate, QueryFragmentGraph,
    Templar, TemplarConfig,
};

/// `TextSimilarity` through the trait's default `name_similarity`: every
/// schema name is scored as a plain string pair.
struct Scalar(TextSimilarity);

impl SimilarityModel for Scalar {
    fn similarity(&self, phrase: &str, target: &str) -> f64 {
        self.0.similarity(phrase, target)
    }
}

/// One vocabulary over the relation and attribute names of the schemas.
fn names_of(schemas: &[Schema]) -> Vocabulary {
    let mut vocabulary = Vocabulary::new();
    for relation in schemas.iter().flat_map(|s| &s.relations) {
        vocabulary.insert(&relation.name);
        for attribute in &relation.attributes {
            vocabulary.insert(&attribute.name);
        }
    }
    vocabulary
}

/// Every name of `vocabulary` scored against `phrase` both ways.
fn assert_bit_identical(model: &TextSimilarity, vocabulary: &Vocabulary, phrase: &str) {
    let mut scorer = PhraseScorer::new(phrase, vocabulary);
    for name in 0..vocabulary.name_count() {
        let indexed = scorer.similarity(model, name);
        let scalar = model.similarity(phrase, vocabulary.name(name));
        assert_eq!(
            indexed.to_bits(),
            scalar.to_bits(),
            "{phrase:?} vs {:?}: indexed {indexed} != scalar {scalar}",
            vocabulary.name(name)
        );
        // A second lookup reads the per-name memo.
        assert_eq!(scorer.similarity(model, name).to_bits(), scalar.to_bits());
    }
}

fn benchmark_keywords(datasets: &[Dataset]) -> BTreeSet<String> {
    datasets
        .iter()
        .flat_map(|d| &d.cases)
        .flat_map(|c| &c.nlq.keywords)
        .map(|(k, _)| k.text.clone())
        .collect()
}

#[test]
fn indexed_sigma_is_bit_identical_on_benchmark_keywords() {
    let datasets = Dataset::all();
    let schemas: Vec<Schema> = datasets.iter().map(|d| d.db.schema().clone()).collect();
    let vocabulary = names_of(&schemas);
    let model = TextSimilarity::new();
    let keywords = benchmark_keywords(&datasets);
    assert!(keywords.len() > 100, "{} keywords", keywords.len());
    for keyword in &keywords {
        assert_bit_identical(&model, &vocabulary, keyword);
    }
}

/// The tie-break string `score_and_prune` orders equal scores by.
fn sort_key(element: &MappedElement) -> String {
    match element {
        MappedElement::Relation(r) => format!("0:{r}"),
        MappedElement::Attribute { attr, .. } => format!("1:{attr}"),
        MappedElement::Predicate { attr, op, value } => {
            format!("2:{attr}:{}:{value}", op.symbol())
        }
    }
}

fn assert_same_list(label: &str, a: &[MappingCandidate], b: &[MappingCandidate]) {
    assert_eq!(a.len(), b.len(), "{label}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.element, y.element, "{label}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}: {:?}",
            x.element
        );
    }
}

fn score_and_prune(
    db: &Database,
    qfg: &QueryFragmentGraph,
    model: &dyn SimilarityModel,
    config: &TemplarConfig,
    keyword: &Keyword,
    meta: &KeywordMetadata,
) -> Vec<MappingCandidate> {
    let mapper = KeywordMapper::new(db, qfg, model, config);
    mapper.score_and_prune(keyword, mapper.keyword_candidates(keyword, meta))
}

#[test]
fn score_and_prune_matches_the_scalar_path_on_benchmark_keywords() {
    let indexed = TextSimilarity::new();
    let scalar = Scalar(TextSimilarity::new());
    let mut checked = 0;
    for dataset in Dataset::all() {
        let templar = Templar::new(
            dataset.db.clone(),
            &dataset.full_log(),
            TemplarConfig::default(),
        )
        .expect("benchmark Templar");
        // Pruning off, so the whole sorted list is compared: ties must
        // follow the tie-break strings, in candidate order.
        let mut unpruned = TemplarConfig::default().with_kappa(usize::MAX);
        unpruned.epsilon = -1e-9;
        for case in &dataset.cases {
            for (keyword, meta) in &case.nlq.keywords {
                let label = format!("{} {:?} {meta:?}", dataset.name, keyword.text);
                let (db, qfg) = (templar.database(), templar.qfg());
                let fast = score_and_prune(db, qfg, &indexed, templar.config(), keyword, meta);
                let slow = score_and_prune(db, qfg, &scalar, templar.config(), keyword, meta);
                assert_same_list(&label, &fast, &slow);

                let full = score_and_prune(db, qfg, &indexed, &unpruned, keyword, meta);
                let full_scalar = score_and_prune(db, qfg, &scalar, &unpruned, keyword, meta);
                let mapper = KeywordMapper::new(db, qfg, &scalar, &unpruned);
                let mut expected: Vec<(usize, MappingCandidate)> = mapper
                    .keyword_candidates(keyword, meta)
                    .into_iter()
                    .enumerate()
                    .map(|(i, element)| {
                        let score = full_scalar
                            .iter()
                            .find(|c| c.element == element)
                            .map_or(f64::NAN, |c| c.score);
                        (
                            i,
                            MappingCandidate {
                                keyword: keyword.clone(),
                                element,
                                score,
                            },
                        )
                    })
                    .collect();
                expected.sort_by(|(i, a), (j, b)| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| sort_key(&a.element).cmp(&sort_key(&b.element)))
                        .then(i.cmp(j))
                });
                let expected: Vec<MappingCandidate> =
                    expected.into_iter().map(|(_, c)| c).collect();
                assert_same_list(&format!("{label} (unpruned)"), &full, &expected);
                checked += 1;
            }
        }
    }
    assert!(checked > 449, "{checked} keywords checked");
}

fn phrase_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z ]{0,24}",
        "[a-z]{1,8}[A-Z][a-z]{1,8}",
        "[0-9]{1,6}",
        Just(String::new()),
        "[a-zäöüßéÉçÇñΣσςİı_ ]{0,16}",
        "[A-Za-z0-9_ .-]{0,20}",
    ]
}

proptest! {
    /// Random phrases against the benchmark names plus random names.
    #[test]
    fn indexed_sigma_is_bit_identical_on_random_phrases(
        phrase in phrase_strategy(),
        names in proptest::collection::vec(phrase_strategy(), 0..4),
    ) {
        let mut vocabulary = names_of(&[
            datasets::mas::schema(),
            datasets::yelp::schema(),
            datasets::imdb::schema(),
        ]);
        // The phrase itself and an upper-cased copy, which only the
        // case-insensitive exact match scores 1 when they split apart
        // (`reviewCount` vs `REVIEWCOUNT`) or into no word (`2000`).
        for name in names.iter().chain([&phrase, &phrase.to_ascii_uppercase()]) {
            vocabulary.insert(name);
        }
        assert_bit_identical(&TextSimilarity::new(), &vocabulary, &phrase);
    }
}
