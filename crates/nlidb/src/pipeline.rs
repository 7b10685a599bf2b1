//! The Pipeline baseline and its Templar-augmented variant (Pipeline+).
//!
//! Pipeline implements the keyword mapping and join path inference steps of
//! SQLizer \[41\] without the hand-written repair rules (Section VII-A.2 of
//! the paper): keyword mappings are ranked purely by normalised
//! word-embedding similarity, and join paths are always the minimum-length
//! ones.  Pipeline+ keeps the same NLQ handling and SQL construction but
//! defers keyword mapping and join path inference to Templar.
//!
//! Both are expressed as instances of the same translation driver over a
//! [`Templar`] facade: the baseline simply runs Templar with `λ = 1`
//! (similarity-only configuration scores), an empty query log and unit join
//! weights, which makes it behave exactly as the SQLizer-style pipeline the
//! paper describes.

use crate::construct::construct_query;
use crate::explain::{Explanation, JoinExplanation, JOIN_BLEND_BASE, JOIN_BLEND_WEIGHT};
use crate::system::{NlidbSystem, Nlq, RankedSql, TemplarSource, TranslateError};
use relational::Database;
use sqlparse::canon::fingerprint;
use sqlparse::{canonicalize, Query};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::sync::Arc;
use templar_core::{
    BagItem, Configuration, Keyword, KeywordMetadata, MappedElement, QueryLog, SearchStats,
    SharedTemplar, Stage, Templar, TemplarConfig, TemplarError, TraceCtx,
};

/// How many of the top configurations are expanded into SQL candidates.
const CONFIGS_PER_QUERY: usize = 6;

/// A pipeline-style NLIDB (baseline, Templar-augmented, or live-serving).
pub struct PipelineSystem {
    name: String,
    source: TemplarSource,
}

impl PipelineSystem {
    /// The vanilla Pipeline baseline: similarity-only keyword mapping and
    /// minimum-length join paths (no query-log information at all).
    pub fn baseline(db: Arc<Database>) -> Result<Self, TemplarError> {
        let config = TemplarConfig::default()
            .with_lambda(1.0)
            .with_log_joins(false);
        let templar = Templar::new(db, &QueryLog::new(), config)?;
        Ok(PipelineSystem {
            name: "Pipeline".to_string(),
            source: TemplarSource::Fixed(Arc::new(templar)),
        })
    }

    /// Pipeline+ — the baseline augmented with Templar using the given query
    /// log and configuration.
    pub fn augmented(
        db: Arc<Database>,
        log: &QueryLog,
        config: TemplarConfig,
    ) -> Result<Self, TemplarError> {
        let templar = Templar::new(db, log, config)?;
        Ok(PipelineSystem {
            name: "Pipeline+".to_string(),
            source: TemplarSource::Fixed(Arc::new(templar)),
        })
    }

    /// Pipeline+ over a live serving handle (`TemplarService::handle()`):
    /// every translation runs against the service's newest published
    /// snapshot, so ingested log entries sharpen subsequent translations
    /// without rebuilding the system.
    pub fn serving(handle: SharedTemplar) -> Self {
        PipelineSystem {
            name: "Pipeline+live".to_string(),
            source: TemplarSource::Shared(handle),
        }
    }

    /// The Templar facade used for the next translation (the current
    /// snapshot, in the serving variant).
    pub fn templar(&self) -> Arc<Templar> {
        self.source.current()
    }

    /// The keywords this system feeds to keyword mapping.  Pipeline receives
    /// the gold hand parse (Section VII-A.4).
    fn parse(&self, nlq: &Nlq) -> Vec<(Keyword, KeywordMetadata)> {
        nlq.keywords.clone()
    }
}

/// Shared translation driver: map keywords, infer joins for the top
/// configurations, construct SQL, and rank.  Public so the serving layer
/// (`templar-service`) can drive translations against a snapshot directly.
pub fn translate_with(
    templar: &Templar,
    keywords: &[(Keyword, KeywordMetadata)],
) -> Result<Vec<RankedSql>, TranslateError> {
    translate_with_config(templar, keywords, templar.config())
}

/// [`translate_with`] under an explicit configuration.  The serving layer
/// uses this to apply per-request overrides (λ, `use_log_joins`) against an
/// immutable snapshot; the override-aware join cache keeps inferences from
/// different configurations from aliasing.
pub fn translate_with_config(
    templar: &Templar,
    keywords: &[(Keyword, KeywordMetadata)],
    config: &TemplarConfig,
) -> Result<Vec<RankedSql>, TranslateError> {
    translate_with_config_stats(templar, keywords, config).0
}

/// [`translate_with_config`] plus the [`SearchStats`] of the best-first
/// configuration search behind the translation — returned even when the
/// translation fails downstream of keyword mapping, so the serving layer's
/// counters always see the search work that was actually spent.
pub fn translate_with_config_stats(
    templar: &Templar,
    keywords: &[(Keyword, KeywordMetadata)],
    config: &TemplarConfig,
) -> (Result<Vec<RankedSql>, TranslateError>, SearchStats) {
    translate_traced(templar, keywords, config, TraceCtx::disabled())
}

/// [`translate_with_config_stats`] recording per-stage spans into `trace`:
/// candidate pruning and the configuration search inside keyword mapping,
/// then join inference, SQL construction and final ranking here.  Spans are
/// non-overlapping on this thread, so their durations sum to at most the
/// caller's measured end-to-end latency; [`TraceCtx::disabled`] (what the
/// untraced entry points pass) makes the whole path identical to the
/// pre-tracing build.
pub fn translate_traced(
    templar: &Templar,
    keywords: &[(Keyword, KeywordMetadata)],
    config: &TemplarConfig,
    trace: TraceCtx<'_>,
) -> (Result<Vec<RankedSql>, TranslateError>, SearchStats) {
    if keywords.is_empty() {
        return (Err(TranslateError::NoKeywords), SearchStats::default());
    }
    let (configurations, stats) = templar.map_keywords_traced(keywords, config, trace);
    let mut distinct = Distinct::default();
    let ranked = rank_configurations(
        templar,
        config,
        configurations,
        &stats,
        trace,
        |query, kept| distinct.admit(query, kept),
    );
    (ranked, stats)
}

/// The candidates kept so far, by fingerprint: a candidate is new unless its
/// canonical rendering equals a kept one's, and renderings are built only
/// for candidates whose fingerprints match (or that have none).
#[derive(Default)]
struct Distinct {
    /// Per kept candidate, in order: its fingerprint and, once built, its
    /// canonical rendering.
    kept: Vec<(Option<u64>, OnceCell<String>)>,
}

impl Distinct {
    /// Admit `query` unless it canonicalizes like a kept candidate; `kept`
    /// holds the queries admitted so far, in order.
    fn admit(&mut self, query: &Query, kept: &[RankedSql]) -> bool {
        let fingerprint = fingerprint(query);
        let canonical = OnceCell::new();
        let duplicate = self
            .kept
            .iter()
            .zip(kept)
            .any(|((other, rendering), other_sql)| {
                let may_match = match (fingerprint, other) {
                    (Some(a), Some(b)) => a == *b,
                    _ => true,
                };
                may_match
                    && rendering.get_or_init(|| canonical_sql(&other_sql.query))
                        == canonical.get_or_init(|| canonical_sql(query))
            });
        if !duplicate {
            self.kept.push((fingerprint, canonical));
        }
        !duplicate
    }
}

fn canonical_sql(query: &Query) -> String {
    canonicalize(query).to_string()
}

/// Expand the top configurations into ranked SQL candidates, keeping a
/// candidate only when `is_new` admits it given the candidates kept before.
fn rank_configurations(
    templar: &Templar,
    config: &TemplarConfig,
    configurations: Vec<Configuration>,
    stats: &SearchStats,
    trace: TraceCtx<'_>,
    mut is_new: impl FnMut(&Query, &[RankedSql]) -> bool,
) -> Result<Vec<RankedSql>, TranslateError> {
    if configurations.is_empty() {
        return Err(TranslateError::NoMappings);
    }
    let mut results: Vec<RankedSql> = Vec::new();
    let mut any_join_path = false;
    for configuration in configurations.into_iter().take(CONFIGS_PER_QUERY) {
        let bag = bag_of(&configuration);
        if bag.is_empty() {
            continue;
        }
        let Ok(inference) = templar.infer_joins_traced(&bag, config, trace) else {
            continue;
        };
        any_join_path = true;
        for scored_path in inference.paths.iter().take(2) {
            let construct_span = trace.span(Stage::SqlConstruction);
            let Some(query) = construct_query(&configuration, &inference, &scored_path.path) else {
                continue;
            };
            let new = is_new(&query, &results);
            drop(construct_span);
            if !new {
                continue;
            }
            // The configuration score carries the keyword-mapping evidence;
            // the join-path score only modulates it.  Blending (rather than
            // multiplying outright) keeps a popular-but-irrelevant join edge
            // from overriding a clearly better keyword mapping.
            let score =
                configuration.score * (JOIN_BLEND_BASE + JOIN_BLEND_WEIGHT * scored_path.score);
            let join = JoinExplanation {
                edges: scored_path.path.edges.len(),
                total_weight: scored_path.path.total_weight,
                used_log_weights: inference.used_log_weights,
                score: scored_path.score,
            };
            results.push(RankedSql {
                explanation: Explanation::from_parts(
                    &configuration,
                    join,
                    score,
                    stats.budget_exhausted,
                ),
                query,
                score,
                configuration: Some(configuration.clone()),
            });
        }
    }
    if results.is_empty() {
        return Err(if any_join_path {
            TranslateError::NoSql
        } else {
            TranslateError::NoJoinPath
        });
    }
    let _span = trace.span(Stage::Ranking);
    // Best score first; equal scores in SQL order, each tied query rendered
    // once.
    let tied =
        |a: &RankedSql, b: &RankedSql| b.score.partial_cmp(&a.score).is_none_or(Ordering::is_eq);
    results.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
    for ties in results.chunk_by_mut(tied) {
        if ties.len() > 1 {
            ties.sort_by_cached_key(|r| r.query.to_string());
        }
    }
    Ok(results)
}

/// The bag of relations/attributes implied by a configuration, handed to
/// `INFERJOINS`.
pub(crate) fn bag_of(config: &Configuration) -> Vec<BagItem> {
    config
        .mappings
        .iter()
        .map(|m| match &m.element {
            MappedElement::Relation(r) => BagItem::Relation(r.clone()),
            MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                BagItem::Attribute(attr.clone())
            }
        })
        .collect()
}

impl NlidbSystem for PipelineSystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn translate(&self, nlq: &Nlq) -> Result<Vec<RankedSql>, TranslateError> {
        let keywords = self.parse(nlq);
        translate_with(&self.source.current(), &keywords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{AttributeRef, DataType, Schema};
    use sqlparse::{canon, parse_query, BinOp};
    use templar_core::{MappingCandidate, QueryContext};

    fn academic_db() -> Arc<Database> {
        let schema = Schema::builder("academic")
            .relation(
                "publication",
                &[
                    ("pid", DataType::Integer),
                    ("title", DataType::Text),
                    ("year", DataType::Integer),
                    ("jid", DataType::Integer),
                ],
                Some("pid"),
            )
            .relation(
                "journal",
                &[("jid", DataType::Integer), ("name", DataType::Text)],
                Some("jid"),
            )
            .foreign_key("publication", "jid", "journal", "jid")
            .build();
        let mut db = Database::new(schema);
        db.insert(
            "publication",
            vec![1.into(), "Query Processing".into(), 2003.into(), 1.into()],
        )
        .unwrap();
        db.insert(
            "publication",
            vec![2.into(), "Data Integration".into(), 1997.into(), 2.into()],
        )
        .unwrap();
        db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
        db.insert("journal", vec![2.into(), "TMC".into()]).unwrap();
        Arc::new(db)
    }

    fn papers_after_2000() -> Nlq {
        Nlq::new(
            "Return the papers after 2000",
            vec![
                (
                    Keyword::new("papers"),
                    KeywordMetadata {
                        context: QueryContext::Select,
                        op: None,
                        aggregates: vec![],
                        group_by: false,
                    },
                ),
                (
                    Keyword::new("after 2000"),
                    KeywordMetadata {
                        context: QueryContext::Where,
                        op: Some(BinOp::Gt),
                        aggregates: vec![],
                        group_by: false,
                    },
                ),
            ],
            vec![],
        )
    }

    fn log() -> QueryLog {
        QueryLog::from_sql([
            "SELECT p.title FROM publication p WHERE p.year > 1995",
            "SELECT p.title FROM publication p WHERE p.year > 2010",
            "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
        ])
        .0
    }

    #[test]
    fn baseline_translates_a_simple_query() {
        let system = PipelineSystem::baseline(academic_db()).unwrap();
        assert_eq!(system.name(), "Pipeline");
        let results = system.translate(&papers_after_2000()).unwrap();
        assert!(!results.is_empty());
        // Ranked best-first with scores in descending order.
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn augmented_system_produces_the_intended_translation() {
        let system =
            PipelineSystem::augmented(academic_db(), &log(), TemplarConfig::default()).unwrap();
        assert_eq!(system.name(), "Pipeline+");
        let results = system.translate(&papers_after_2000()).unwrap();
        assert!(!results.is_empty());
        let gold = parse_query("SELECT p.title FROM publication p WHERE p.year > 2000").unwrap();
        assert!(
            canon::equivalent(&results[0].query, &gold),
            "top-1 was: {}",
            results[0].query
        );
    }

    #[test]
    fn duplicate_translations_are_deduplicated() {
        let system = PipelineSystem::baseline(academic_db()).unwrap();
        let results = system.translate(&papers_after_2000()).unwrap();
        let mut canon_forms: Vec<String> = results
            .iter()
            .map(|r| canonicalize(&r.query).to_string())
            .collect();
        let before = canon_forms.len();
        canon_forms.sort();
        canon_forms.dedup();
        assert_eq!(before, canon_forms.len());
    }

    /// [`translate_traced`] with the dedup that came before fingerprints:
    /// a set of canonical renderings.
    fn translate_with_canonical_set(
        templar: &Templar,
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
    ) -> Result<Vec<RankedSql>, TranslateError> {
        let trace = TraceCtx::disabled();
        let (configurations, stats) = templar.map_keywords_traced(keywords, config, trace);
        let mut seen = std::collections::BTreeSet::new();
        rank_configurations(
            templar,
            config,
            configurations,
            &stats,
            trace,
            |query, _| seen.insert(canonical_sql(query)),
        )
    }

    /// The fingerprint dedup against the set of canonical renderings on
    /// every benchmark case, under Pipeline+ over the full log and under
    /// the baseline: identical ranked lists.
    #[test]
    fn fingerprint_dedup_matches_reference_on_benchmark_cases() {
        let mut cases = 0;
        for dataset in datasets::Dataset::all() {
            let systems = [
                PipelineSystem::augmented(
                    dataset.db.clone(),
                    &dataset.full_log(),
                    Default::default(),
                ),
                PipelineSystem::baseline(dataset.db.clone()),
            ];
            for system in systems {
                let templar = system.expect("benchmark system").templar();
                let config = templar.config();
                for case in &dataset.cases {
                    let keywords = &case.nlq.keywords;
                    let (fingerprinted, _) =
                        translate_with_config_stats(&templar, keywords, config);
                    let reference = translate_with_canonical_set(&templar, keywords, config);
                    assert_eq!(
                        format!("{fingerprinted:?}"),
                        format!("{reference:?}"),
                        "{}",
                        case.nlq.text
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * 449);
    }

    /// Two configurations whose SELECT keywords swap attributes build SQL
    /// that differs only in SELECT order: the first is kept, as the set of
    /// canonical renderings keeps it.
    #[test]
    fn configurations_building_the_same_sql_keep_the_first() {
        let system =
            PipelineSystem::augmented(academic_db(), &log(), TemplarConfig::default()).unwrap();
        let templar = system.templar();
        let select = |keyword: &str, attribute: &str| MappingCandidate {
            keyword: Keyword::new(keyword),
            element: MappedElement::Attribute {
                attr: AttributeRef::new("publication", attribute),
                aggregates: vec![],
                group_by: false,
            },
            score: 1.0,
        };
        let configuration = |first: &str, second: &str, score: f64| Configuration {
            mappings: vec![select("papers", first), select("when", second)],
            sigma_score: score,
            qfg_score: score,
            log_popularity: score,
            dice_cooccurrence: 0.0,
            qfg_pairs: 0,
            lambda: 1.0,
            score,
        };
        let configurations = vec![
            configuration("title", "year", 0.9),
            configuration("year", "title", 0.8),
        ];
        let rank = |is_new: &mut dyn FnMut(&Query, &[RankedSql]) -> bool| {
            rank_configurations(
                &templar,
                templar.config(),
                configurations.clone(),
                &SearchStats::default(),
                TraceCtx::disabled(),
                is_new,
            )
            .unwrap()
        };
        let mut distinct = Distinct::default();
        let ranked = rank(&mut |query, kept| distinct.admit(query, kept));
        let mut seen = std::collections::BTreeSet::new();
        let reference = rank(&mut |query, _| seen.insert(canonical_sql(query)));
        assert_eq!(format!("{ranked:?}"), format!("{reference:?}"));
        assert_eq!(ranked.len(), 1);
        assert_eq!(
            ranked[0].query.to_string(),
            "SELECT t1.title, t1.year FROM publication t1"
        );
        assert_eq!(ranked[0].score, 0.9 * (JOIN_BLEND_BASE + JOIN_BLEND_WEIGHT));
    }

    /// Self-joins that differ only in which instance a join condition names
    /// share a fingerprint; their canonical renderings tell them apart.
    #[test]
    fn a_shared_fingerprint_falls_back_to_canonical_renderings() {
        let system = PipelineSystem::baseline(academic_db()).unwrap();
        let explanation = system.translate(&papers_after_2000()).unwrap()[0]
            .explanation
            .clone();
        let ranked = |sql: &str| RankedSql {
            query: parse_query(sql).unwrap(),
            score: 0.0,
            configuration: None,
            explanation: explanation.clone(),
        };
        let first = "SELECT w.pid FROM author a1, author a2, writes w \
                     WHERE a1.name = 'x' AND a2.name = 'y' AND a1.aid = w.aid";
        let second = "SELECT w.pid FROM author a1, author a2, writes w \
                      WHERE a1.name = 'x' AND a2.name = 'y' AND a2.aid = w.aid";
        let renamed = "SELECT v.pid FROM writes v, author b2, author b1 \
                       WHERE b2.aid = v.aid AND b2.name = 'y' AND b1.name = 'x'";
        let [first, second, renamed] = [first, second, renamed].map(ranked);
        assert_eq!(fingerprint(&first.query), fingerprint(&second.query));
        let mut distinct = Distinct::default();
        let mut kept = Vec::new();
        for candidate in [first, second, renamed] {
            if distinct.admit(&candidate.query, &kept) {
                kept.push(candidate);
            }
        }
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn empty_keywords_are_a_typed_error() {
        let system = PipelineSystem::baseline(academic_db()).unwrap();
        let nlq = Nlq::new("gibberish", vec![], vec![]);
        assert!(matches!(
            system.translate(&nlq),
            Err(TranslateError::NoKeywords)
        ));
    }

    #[test]
    fn traced_translation_attributes_stages_within_the_total() {
        use std::time::Instant;
        use templar_core::{Stage, TraceCtx, TraceSpans};

        let system =
            PipelineSystem::augmented(academic_db(), &log(), TemplarConfig::default()).unwrap();
        let templar = system.templar();
        let keywords = papers_after_2000().keywords;

        let spans = TraceSpans::new();
        let started = Instant::now();
        let (results, stats) = translate_traced(
            &templar,
            &keywords,
            templar.config(),
            TraceCtx::enabled(&spans),
        );
        let trace = spans.finish(started.elapsed());
        assert!(!results.unwrap().is_empty());
        assert!(stats.tuples_scored > 0);

        // Every stage ran at least once, and the non-overlapping spans must
        // sum to at most the measured end-to-end latency.
        for span in &trace.stages {
            assert!(span.calls > 0, "stage {} never recorded a call", span.stage);
        }
        assert!(trace.stage_nanos(Stage::CandidatePruning) > 0);
        assert!(
            trace.stage_sum_nanos() <= trace.total_nanos,
            "stage sum {} exceeds end-to-end total {}",
            trace.stage_sum_nanos(),
            trace.total_nanos
        );

        // Tracing must not change the translation itself.
        let (untraced, _) = translate_with_config_stats(&templar, &keywords, templar.config());
        let (traced, _) = translate_traced(
            &templar,
            &keywords,
            templar.config(),
            TraceCtx::enabled(&TraceSpans::new()),
        );
        let queries = |rs: Vec<RankedSql>| -> Vec<String> {
            rs.into_iter().map(|r| r.query.to_string()).collect()
        };
        assert_eq!(queries(untraced.unwrap()), queries(traced.unwrap()));
    }

    #[test]
    fn every_candidate_carries_a_consistent_explanation() {
        let system =
            PipelineSystem::augmented(academic_db(), &log(), TemplarConfig::default()).unwrap();
        let results = system.translate(&papers_after_2000()).unwrap();
        for r in &results {
            assert!(
                r.explanation.is_consistent(1e-9),
                "explanation must recompute the blended score: {:?}",
                r.explanation
            );
            assert!((r.explanation.final_score - r.score).abs() < 1e-12);
        }
    }
}
