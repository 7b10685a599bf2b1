//! Keyword mapping (Section V, Algorithms 1–3).
//!
//! The keyword mapper receives keywords and parser metadata from the host
//! NLIDB, retrieves candidate query-fragment mappings from the database
//! (Algorithm 2), scores and prunes them (Algorithm 3), and finally combines
//! them into ranked *configurations* whose score blends word similarity with
//! the query-log evidence stored in the QFG (Section V-C).

use crate::config::TemplarConfig;
use crate::fragment::{QueryContext, QueryFragment};
use crate::qfg::{DiceGatherScratch, FragmentId, QueryFragmentGraph, ABSENT_FRAGMENT};
use crate::trace::{Stage, TraceCtx};
use nlp::{contains_number, extract_numbers, tokenize_lower, SimilarityModel};
use relational::{AttributeRef, Database};
use serde::{Deserialize, Serialize};
use sqlparse::{Aggregate, BinOp, ColumnRef, Expr, Literal, Predicate};

/// Additive smoothing applied to each pairwise Dice coefficient of
/// `Score_QFG` (see [`qfg_breakdown`]).
const QFG_SMOOTHING: f64 = 0.01;

/// A keyword phrase extracted from the NLQ by the host NLIDB.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Keyword {
    /// The keyword text (possibly multiple words, e.g. `"after 2000"`).
    pub text: String,
}

impl Keyword {
    /// Construct a keyword.
    pub fn new(text: impl Into<String>) -> Self {
        Keyword { text: text.into() }
    }
}

/// Parser metadata accompanying a keyword (the `M_k` tuple of Section III-C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeywordMetadata {
    /// The clause context `τ` the mapped fragment should live in.
    pub context: QueryContext,
    /// The predicate comparison operator `ω`, when the NLQ implies one
    /// (e.g. *after* ⇒ `>`).
    pub op: Option<BinOp>,
    /// The ordered aggregation functions `F` to apply to the mapping.
    pub aggregates: Vec<Aggregate>,
    /// `g`: whether the mapping should be grouped.
    pub group_by: bool,
}

impl KeywordMetadata {
    /// Metadata for a plain projection keyword.
    pub fn select() -> Self {
        KeywordMetadata {
            context: QueryContext::Select,
            op: None,
            aggregates: Vec::new(),
            group_by: false,
        }
    }

    /// Metadata for a value / predicate keyword.
    pub fn filter() -> Self {
        KeywordMetadata {
            context: QueryContext::Where,
            op: None,
            aggregates: Vec::new(),
            group_by: false,
        }
    }

    /// Metadata for a predicate keyword with an explicit operator.
    pub fn filter_with_op(op: BinOp) -> Self {
        KeywordMetadata {
            op: Some(op),
            ..Self::filter()
        }
    }

    /// Metadata for a relation keyword (FROM context).
    pub fn from_clause() -> Self {
        KeywordMetadata {
            context: QueryContext::From,
            op: None,
            aggregates: Vec::new(),
            group_by: false,
        }
    }

    /// Attach aggregation functions.
    pub fn with_aggregates(mut self, aggregates: Vec<Aggregate>) -> Self {
        self.aggregates = aggregates;
        self
    }

    /// Mark the mapping as grouped.
    pub fn with_group_by(mut self) -> Self {
        self.group_by = true;
        self
    }
}

/// The database element a keyword was mapped to.  This is the structured
/// counterpart of a query fragment: the NLIDB uses it to assemble the final
/// SQL, while [`MappedElement::fragment`] produces the textual fragment used
/// for QFG lookups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MappedElement {
    /// A relation (FROM context).
    Relation(String),
    /// A projected attribute, possibly aggregated and/or grouped.
    Attribute {
        /// The attribute.
        attr: AttributeRef,
        /// Aggregation functions applied to it (outermost last).
        aggregates: Vec<Aggregate>,
        /// Whether the query should group by this attribute.
        group_by: bool,
    },
    /// A selection predicate `attr op value`.
    Predicate {
        /// The constrained attribute.
        attr: AttributeRef,
        /// The comparison operator.
        op: BinOp,
        /// The literal value.
        value: Literal,
    },
}

impl MappedElement {
    /// The relation this element refers to.
    pub fn relation(&self) -> &str {
        match self {
            MappedElement::Relation(r) => r,
            MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                &attr.relation
            }
        }
    }

    /// The query fragment representing this element at an obscurity level.
    pub fn fragment(&self, config: &TemplarConfig) -> QueryFragment {
        match self {
            MappedElement::Relation(r) => QueryFragment::relation(r),
            MappedElement::Attribute {
                attr, aggregates, ..
            } => QueryFragment::attribute(attr, aggregates.first().copied(), QueryContext::Select),
            MappedElement::Predicate { attr, op, value } => {
                QueryFragment::predicate(attr, *op, value, config.obscurity)
            }
        }
    }

    /// True when the element is a relation mapping (FROM context).
    pub fn is_relation(&self) -> bool {
        matches!(self, MappedElement::Relation(_))
    }

    /// The SQL predicate for a predicate element (used by the NLIDB when
    /// constructing the final query).
    pub fn to_predicate(&self, qualifier: &str) -> Option<Predicate> {
        match self {
            MappedElement::Predicate { attr, op, value } => Some(Predicate::Compare {
                left: Expr::Column(ColumnRef::qualified(qualifier, attr.attribute.clone())),
                op: *op,
                right: Expr::Literal(value.clone()),
            }),
            _ => None,
        }
    }
}

/// A scored keyword-to-element mapping (Definition 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingCandidate {
    /// The keyword being mapped.
    pub keyword: Keyword,
    /// The database element it is mapped to.
    pub element: MappedElement,
    /// The similarity score `σ ∈ [0, 1]`.
    pub score: f64,
}

/// A configuration (Definition 5): one mapping per keyword, plus its scores.
///
/// Every component entering the final λ-blend is carried individually, so a
/// caller (or a wire client holding an `Explanation`) can recompute `score`
/// from the parts: `Score_QFG` is the log-popularity component when the
/// configuration has fewer than two non-relation fragments (`qfg_pairs ==
/// 0`) and the pairwise-Dice component otherwise, and
/// `score = λ·Score_σ + (1−λ)·Score_QFG`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    /// One mapping per keyword, in the order the keywords were given.
    pub mappings: Vec<MappingCandidate>,
    /// The word-similarity score `Score_σ` (geometric mean of the σ's).
    pub sigma_score: f64,
    /// The query-log-driven score `Score_QFG`.
    pub qfg_score: f64,
    /// Log-popularity component: mean normalised occurrence frequency of the
    /// configuration's non-relation fragments in the query log.
    pub log_popularity: f64,
    /// Co-occurrence component: the smoothed geometric aggregation of the
    /// pairwise Dice coefficients (Section V-C.2); 0 when `qfg_pairs == 0`.
    pub dice_cooccurrence: f64,
    /// Number of fragment pairs behind `dice_cooccurrence`.  When 0, the
    /// log-popularity fallback is the effective `Score_QFG`.
    pub qfg_pairs: usize,
    /// The λ this configuration was scored under.
    pub lambda: f64,
    /// The final combined score `λ·Score_σ + (1−λ)·Score_QFG`.
    pub score: f64,
}

impl Configuration {
    /// The relations referenced by the configuration (with multiplicity, in
    /// mapping order) — the bag handed to join path inference.
    pub fn relation_bag(&self) -> Vec<String> {
        self.mappings
            .iter()
            .map(|m| m.element.relation().to_string())
            .collect()
    }

    /// The attributes referenced by the configuration (with multiplicity).
    pub fn attribute_bag(&self) -> Vec<AttributeRef> {
        self.mappings
            .iter()
            .filter_map(|m| match &m.element {
                MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                    Some(attr.clone())
                }
                MappedElement::Relation(_) => None,
            })
            .collect()
    }
}

/// The keyword mapper: executes `MAPKEYWORDS` (Algorithm 1).
pub struct KeywordMapper<'a> {
    db: &'a Database,
    qfg: &'a QueryFragmentGraph,
    similarity: &'a dyn SimilarityModel,
    config: &'a TemplarConfig,
}

impl<'a> KeywordMapper<'a> {
    /// Create a mapper over a database, QFG, similarity model and config.
    pub fn new(
        db: &'a Database,
        qfg: &'a QueryFragmentGraph,
        similarity: &'a dyn SimilarityModel,
        config: &'a TemplarConfig,
    ) -> Self {
        KeywordMapper {
            db,
            qfg,
            similarity,
            config,
        }
    }

    /// `MAPKEYWORDS` (Algorithm 1): map every keyword to candidates, prune,
    /// and return ranked configurations.
    pub fn map_keywords(&self, keywords: &[(Keyword, KeywordMetadata)]) -> Vec<Configuration> {
        self.map_keywords_with_stats(keywords).0
    }

    /// [`KeywordMapper::map_keywords`] plus the [`SearchStats`] of the
    /// best-first configuration search that ranked the result — how many
    /// complete configurations were scored, how many the admissible bound
    /// proved irrelevant without scoring, and whether the search budget ran
    /// out before exactness was established.
    pub fn map_keywords_with_stats(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
    ) -> (Vec<Configuration>, SearchStats) {
        self.map_keywords_traced(keywords, TraceCtx::disabled())
    }

    /// [`KeywordMapper::map_keywords_with_stats`] recording per-stage spans
    /// into `trace`: candidate retrieval/pruning under
    /// [`Stage::CandidatePruning`], everything from fragment-id resolution
    /// through the best-first search and materialization under
    /// [`Stage::ConfigSearch`] (with the search's own busy time reported
    /// separately).  The disabled context makes this identical to the
    /// untraced call.
    pub fn map_keywords_traced(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
        trace: TraceCtx<'_>,
    ) -> (Vec<Configuration>, SearchStats) {
        let per_keyword = {
            let _span = trace.span(Stage::CandidatePruning);
            self.pruned_candidate_lists(keywords)
        };
        if per_keyword.is_empty() {
            return (Vec::new(), SearchStats::default());
        }
        let _span = trace.span(Stage::ConfigSearch);
        let resolved = self.resolve_lists(&per_keyword);
        let search = ConfigurationSearch::new(self.qfg, self.config, &resolved);
        let (scored, stats) = search.run_traced(trace);
        (self.materialize(&per_keyword, scored), stats)
    }

    /// The exhaustive reference enumerator the best-first search replaced:
    /// scores **every** tuple of the cartesian product with the pairwise
    /// `qfg_breakdown` and selects the top configurations under the
    /// identical deterministic comparator.  Exponential in the number of
    /// keywords — kept as the executable specification that tests, benches
    /// and validation tooling check the search against (the two are
    /// byte-identical whenever the search completes within its budget), not
    /// as a serving path.
    pub fn map_keywords_exhaustive(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
    ) -> (Vec<Configuration>, SearchStats) {
        let per_keyword = self.pruned_candidate_lists(keywords);
        if per_keyword.is_empty() {
            return (Vec::new(), SearchStats::default());
        }
        let resolved = self.resolve_lists(&per_keyword);
        let scorer = TupleScorer {
            qfg: self.qfg,
            lambda: self.config.lambda,
            resolved: &resolved,
        };
        let (scored, stats) = exhaustive_top_k(&scorer, &resolved, self.config.max_configurations);
        (self.materialize(&per_keyword, scored), stats)
    }

    /// Candidate retrieval + scoring + pruning for every keyword (the
    /// per-keyword half of Algorithm 1).  Keywords with no surviving
    /// candidate are skipped: one unmappable keyword would zero out every
    /// configuration, while the remaining keywords can still produce a
    /// (partial) query.
    fn pruned_candidate_lists(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
    ) -> Vec<Vec<MappingCandidate>> {
        keywords
            .iter()
            .map(|(kw, meta)| self.score_and_prune(kw, self.keyword_candidates(kw, meta)))
            .filter(|pruned| !pruned.is_empty())
            .collect()
    }

    /// `KEYWORDCANDS` (Algorithm 2).
    pub fn keyword_candidates(
        &self,
        keyword: &Keyword,
        meta: &KeywordMetadata,
    ) -> Vec<MappedElement> {
        let mut candidates = Vec::new();
        if contains_number(&keyword.text) {
            let Some(number) = extract_numbers(&keyword.text).into_iter().next() else {
                return candidates;
            };
            let op = meta
                .op
                .or_else(|| self.operator_from_words(&keyword.text))
                .unwrap_or(BinOp::Eq);
            for attr in self.db.numeric_attrs_satisfying(op, number) {
                candidates.push(MappedElement::Predicate {
                    attr,
                    op,
                    value: Literal::Number(number),
                });
            }
        } else if meta.context == QueryContext::From {
            for rel in self.db.relation_names() {
                candidates.push(MappedElement::Relation(rel.to_string()));
            }
        } else if meta.context == QueryContext::Select {
            for attr in self.db.attribute_refs() {
                candidates.push(MappedElement::Attribute {
                    attr,
                    aggregates: meta.aggregates.clone(),
                    group_by: meta.group_by,
                });
            }
        } else {
            // Full-text search over text attribute values, removing keyword
            // tokens that merely repeat schema element names (Section V-A).
            let ignore = self.schema_word_tokens(&keyword.text);
            let mut matches = self.db.text_search(&keyword.text, &[]);
            if !ignore.is_empty() {
                matches.extend(self.db.text_search(&keyword.text, &ignore));
            }
            matches.sort();
            matches.dedup();
            for m in matches {
                candidates.push(MappedElement::Predicate {
                    attr: m.attribute,
                    op: meta.op.unwrap_or(BinOp::Eq),
                    value: Literal::String(m.value),
                });
            }
        }
        candidates
    }

    /// Keyword tokens that match a relation or attribute name of the schema
    /// (these are removed from full-text queries so that `movie Saving
    /// Private Ryan` can match a value of the `movie` relation).
    fn schema_word_tokens(&self, keyword: &str) -> Vec<String> {
        let mut schema_words: Vec<String> = Vec::new();
        for rel in self.db.relation_names() {
            schema_words.extend(nlp::split_identifier(rel));
        }
        for attr in self.db.attribute_refs() {
            schema_words.extend(nlp::split_identifier(&attr.attribute));
        }
        let schema_stems: std::collections::HashSet<String> =
            schema_words.iter().map(|w| nlp::porter_stem(w)).collect();
        tokenize_lower(keyword)
            .into_iter()
            .filter(|t| schema_stems.contains(&nlp::porter_stem(t)))
            .collect()
    }

    fn operator_from_words(&self, keyword: &str) -> Option<BinOp> {
        tokenize_lower(keyword)
            .iter()
            .find_map(|w| BinOp::from_word(w))
    }

    /// `SCOREANDPRUNE` (Algorithm 3).
    pub fn score_and_prune(
        &self,
        keyword: &Keyword,
        candidates: Vec<MappedElement>,
    ) -> Vec<MappingCandidate> {
        // The tie-break key is derived once per candidate, not re-formatted
        // inside every comparison of the sort.
        let mut scored: Vec<(MappingCandidate, String)> = candidates
            .into_iter()
            .map(|element| {
                let score = self.score_candidate(keyword, &element);
                let candidate = MappingCandidate {
                    keyword: keyword.clone(),
                    element,
                    score,
                };
                let key = candidate_sort_key(&candidate);
                (candidate, key)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.score
                .partial_cmp(&a.0.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        self.prune(scored.into_iter().map(|(c, _)| c).collect())
    }

    /// The σ score of a single candidate.
    fn score_candidate(&self, keyword: &Keyword, element: &MappedElement) -> f64 {
        if contains_number(&keyword.text) {
            // sim_num: keep the candidate only if its predicate selects rows;
            // then compare the textual remainder of the keyword.
            let MappedElement::Predicate { attr, op, value } = element else {
                return self.config.epsilon;
            };
            let pred = Predicate::Compare {
                left: Expr::Column(ColumnRef::new(attr.attribute.clone())),
                op: *op,
                right: Expr::Literal(value.clone()),
            };
            if !self.db.predicate_nonempty(&attr.relation, &pred) {
                return self.config.epsilon;
            }
            let text_rest = self.non_numeric_text(&keyword.text);
            if text_rest.is_empty() {
                // Nothing left to compare: all matching numeric attributes
                // are equally plausible from word similarity alone.
                return 0.5;
            }
            key_attribute_penalty(attr) * self.attribute_similarity(&text_rest, attr)
        } else {
            match element {
                MappedElement::Relation(r) => self.similarity.similarity(&keyword.text, r),
                MappedElement::Attribute {
                    attr, aggregates, ..
                } => {
                    // Surrogate keys are essentially never the projection a
                    // user asks for by name; discount them unless they are
                    // being aggregated (COUNT over a key is idiomatic SQL).
                    let penalty = if aggregates.is_empty() {
                        key_attribute_penalty(attr)
                    } else {
                        1.0
                    };
                    penalty * self.attribute_similarity(&keyword.text, attr)
                }
                MappedElement::Predicate { attr, value, .. } => {
                    let value_text = match value {
                        Literal::String(s) => s.clone(),
                        other => other.to_string(),
                    };
                    let value_sim = self.similarity.similarity(&keyword.text, &value_text);
                    let attr_sim = self.attribute_similarity(&keyword.text, attr);
                    value_sim.max(0.9 * attr_sim)
                }
            }
        }
    }

    /// Similarity between a keyword and an attribute: a blend of the
    /// attribute-name match and the relation-name match, mirroring how the
    /// Pipeline baseline of the paper scores a column against both its own
    /// name and its table's name.  The attribute name dominates so that
    /// different attributes of the same relation remain distinguishable.
    fn attribute_similarity(&self, keyword: &str, attr: &AttributeRef) -> f64 {
        let attr_sim = self.similarity.similarity(keyword, &attr.attribute);
        let rel_sim = self.similarity.similarity(keyword, &attr.relation);
        (0.6 * attr_sim + 0.4 * rel_sim).clamp(0.0, 1.0)
    }

    /// The keyword text with numeric tokens and operator words removed
    /// (`s_text` in Algorithm 3).
    fn non_numeric_text(&self, keyword: &str) -> String {
        tokenize_lower(keyword)
            .into_iter()
            .filter(|t| t.parse::<f64>().is_err() && BinOp::from_word(t).is_none())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The PRUNE procedure of Algorithm 3.
    fn prune(&self, mut scored: Vec<MappingCandidate>) -> Vec<MappingCandidate> {
        if scored.is_empty() {
            return scored;
        }
        let exact_threshold = 1.0 - self.config.epsilon;
        // The list is sorted by score descending, so exact matches are a
        // prefix — keeping them is a truncation, not a filtered re-clone.
        let exact_len = scored
            .iter()
            .take_while(|c| c.score >= exact_threshold)
            .count();
        if exact_len > 0 {
            scored.truncate(exact_len);
            return scored;
        }
        let kappa = self.config.kappa;
        if scored.len() <= kappa {
            return scored;
        }
        let cutoff = scored[kappa - 1].score;
        scored
            .into_iter()
            .enumerate()
            .filter(|(i, c)| *i < kappa || (c.score > 0.0 && (c.score - cutoff).abs() < 1e-12))
            .map(|(_, c)| c)
            .collect()
    }

    /// Materialize winning index tuples into [`Configuration`]s (the only
    /// point at which candidates are cloned).
    fn materialize(
        &self,
        per_keyword: &[Vec<MappingCandidate>],
        scored: Vec<ScoredTuple>,
    ) -> Vec<Configuration> {
        scored
            .into_iter()
            .map(|s| {
                let mappings: Vec<MappingCandidate> = s
                    .indices
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| per_keyword[k][i as usize].clone())
                    .collect();
                Configuration {
                    mappings,
                    sigma_score: s.sigma,
                    qfg_score: s.qfg_score(),
                    log_popularity: s.log_popularity,
                    dice_cooccurrence: s.dice,
                    qfg_pairs: s.pairs,
                    lambda: self.config.lambda,
                    score: s.score,
                }
            })
            .collect()
    }

    /// Resolve every pruned candidate list to the columnar scoring domain
    /// (one pass per request; the search never touches a [`QueryFragment`]
    /// again).  The per-candidate *pair-factor cap* — the admissible upper
    /// bound on any smoothed Dice factor the candidate can contribute to a
    /// configuration — is derived here because it needs a cross-list view:
    /// a fragment offered for two different keywords can be paired with
    /// itself (`Dice = 1`), so its cap must not rely on the `max_dice`
    /// column, which only covers *other* fragments.
    fn resolve_lists(&self, per_keyword: &[Vec<MappingCandidate>]) -> Vec<Vec<ResolvedCandidate>> {
        let mut resolved: Vec<Vec<ResolvedCandidate>> = per_keyword
            .iter()
            .map(|candidates| {
                candidates
                    .iter()
                    .map(|c| self.resolve_candidate(c))
                    .collect()
            })
            .collect();
        assign_popularity(self.qfg, &mut resolved);
        assign_pair_factor_caps(self.qfg, &mut resolved);
        resolved
    }

    /// Compute `Score_σ`, `Score_QFG` and the λ-combination for one
    /// configuration, retaining each component for explanations.  Runs the
    /// same id-based arithmetic as the batched scoring path, so a
    /// configuration scored here can never diverge from the ranking.
    pub fn score_configuration(&self, mappings: Vec<MappingCandidate>) -> Configuration {
        let sigma_score = geometric_mean(mappings.iter().map(|m| m.score));
        let slots: Vec<FragmentSlot> = mappings
            .iter()
            .filter(|m| !m.element.is_relation())
            .map(|m| self.resolve_slot(&m.element))
            .collect();
        let qfg = qfg_breakdown(self.qfg, &slots, mappings.len());
        let qfg_score = if qfg.pairs == 0 {
            qfg.log_popularity
        } else {
            qfg.dice
        };
        let lambda = self.config.lambda;
        let score = lambda * sigma_score + (1.0 - lambda) * qfg_score;
        Configuration {
            mappings,
            sigma_score,
            qfg_score,
            log_popularity: qfg.log_popularity,
            dice_cooccurrence: qfg.dice,
            qfg_pairs: qfg.pairs,
            lambda,
            score,
        }
    }

    /// Resolve one pruned candidate to the columnar scoring domain: its σ,
    /// its interned fragment id and its deterministic tie-break key.  The
    /// normalised log popularity and the pair-factor cap are filled in by
    /// the flat [`assign_popularity`] / [`assign_pair_factor_caps`] sweeps
    /// over the whole request.
    fn resolve_candidate(&self, candidate: &MappingCandidate) -> ResolvedCandidate {
        ResolvedCandidate {
            sigma: candidate.score,
            slot: self.resolve_slot(&candidate.element),
            sort_key: candidate_sort_key(candidate),
            popularity: 0.0,
            pair_factor_cap: 1.0,
        }
    }

    /// Resolve a mapped element's query fragment to its [`FragmentId`].
    fn resolve_slot(&self, element: &MappedElement) -> FragmentSlot {
        if element.is_relation() {
            return FragmentSlot::Relation;
        }
        match self.qfg.lookup(&element.fragment(self.config)) {
            Some(id) => FragmentSlot::Known(id),
            None => FragmentSlot::Unknown,
        }
    }
}

/// How a candidate participates in `Score_QFG`, resolved once per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FragmentSlot {
    /// A FROM-context mapping — excluded from the QFG score (Section V-C.2).
    Relation,
    /// A non-relation fragment present in the graph.
    Known(FragmentId),
    /// A non-relation fragment the log has never seen (`n_v = 0`).
    Unknown,
}

/// A pruned candidate's request-scoped resolution.
struct ResolvedCandidate {
    sigma: f64,
    slot: FragmentSlot,
    sort_key: String,
    /// `n_v / |L|` — this candidate's contribution to the log-popularity
    /// component (0 for relations and never-logged fragments).
    popularity: f64,
    /// Admissible upper bound on any smoothed pair factor
    /// `(Dice + QFG_SMOOTHING).min(1)` this candidate can contribute to a
    /// configuration; derived from the QFG's `max_dice` column (and forced
    /// to 1.0 when the fragment is offered for more than one keyword, since
    /// a self-pair has Dice 1).  Set by [`KeywordMapper::resolve_lists`].
    pair_factor_cap: f64,
}

/// One scored index tuple: the candidate indices (one per keyword, in
/// keyword order) plus every component of the λ-blend.
struct ScoredTuple {
    indices: Vec<u32>,
    sigma: f64,
    log_popularity: f64,
    dice: f64,
    pairs: usize,
    score: f64,
}

impl ScoredTuple {
    fn qfg_score(&self) -> f64 {
        if self.pairs == 0 {
            self.log_popularity
        } else {
            self.dice
        }
    }
}

/// Statistics of one best-first configuration search, surfaced through
/// [`Templar::map_keywords_with_stats`](crate::Templar), translation
/// explanations and the serving metrics instead of being dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Complete configurations actually scored.
    pub tuples_scored: u64,
    /// Complete configurations the admissible bound proved unable to enter
    /// the top-k, skipped without being scored (saturating: a pruned prefix
    /// of a many-keyword request can cover more than `u64::MAX` tuples).
    pub tuples_pruned: u64,
    /// Prefix subtrees cut by the bound (each cut covers one or more
    /// pruned tuples).
    pub bound_cutoffs: u64,
    /// True when [`TemplarConfig::search_budget`] ran out before the search
    /// proved exactness; the returned ranking is then the best found so
    /// far.  Surfaced as `search_budget_exhausted` in explanations — never
    /// a silent truncation.
    pub budget_exhausted: bool,
}

/// Assign every candidate's [`ResolvedCandidate::popularity`] (`n_v / |L|`,
/// the same expression [`qfg_breakdown`] evaluates per tuple, hoisted to
/// once per request) as a flat gather → one divide sweep → scatter, instead
/// of a per-candidate branch-and-divide.  Relations and never-logged
/// fragments gather an occurrence count of zero, so the sweep yields their
/// exact `0.0` (`+0.0 / total ≡ 0.0`) and no branch survives into the
/// arithmetic pass.
fn assign_popularity(qfg: &QueryFragmentGraph, resolved: &mut [Vec<ResolvedCandidate>]) {
    let total = qfg.query_count().max(1) as f64;
    let mut flat: Vec<f64> = Vec::with_capacity(resolved.iter().map(Vec::len).sum());
    for list in resolved.iter() {
        flat.extend(list.iter().map(|candidate| match candidate.slot {
            FragmentSlot::Known(id) => qfg.occurrences_by_id(id) as f64,
            _ => 0.0,
        }));
    }
    for value in flat.iter_mut() {
        *value /= total;
    }
    let mut cursor = flat.iter();
    for list in resolved.iter_mut() {
        for candidate in list {
            candidate.popularity = *cursor.next().expect("gather covers every candidate");
        }
    }
}

/// Assign every candidate's [`ResolvedCandidate::pair_factor_cap`] across
/// the request's resolved lists.  Needs the cross-list view: a fragment
/// offered for two different keywords can be paired with itself
/// (`Dice = 1`), so its cap must not rely on the QFG's `max_dice` column,
/// which only covers *other* fragments.
///
/// Structured as a flat raw-Dice gather followed by one branch-free
/// `(raw + QFG_SMOOTHING).min(1.0)` bound sweep.  The gather encodes each
/// class so the shared sweep reproduces the per-class value exactly:
/// relations and multi-list fragments gather `1.0`
/// (`(1.0 + 0.01).min(1.0) = 1.0`), never-logged fragments gather `0.0`
/// (`0.0 + 0.01 = QFG_SMOOTHING` exactly), and single-list known fragments
/// gather their `max_dice` column entry.
fn assign_pair_factor_caps(qfg: &QueryFragmentGraph, resolved: &mut [Vec<ResolvedCandidate>]) {
    let mut lists_containing: std::collections::HashMap<FragmentId, usize> =
        std::collections::HashMap::new();
    for list in resolved.iter() {
        let mut seen: Vec<FragmentId> = Vec::new();
        for candidate in list {
            if let FragmentSlot::Known(id) = candidate.slot {
                if !seen.contains(&id) {
                    seen.push(id);
                    *lists_containing.entry(id).or_insert(0) += 1;
                }
            }
        }
    }
    let mut flat: Vec<f64> = Vec::with_capacity(resolved.iter().map(Vec::len).sum());
    for list in resolved.iter() {
        flat.extend(list.iter().map(|candidate| match candidate.slot {
            // A relation mapping adds no fragment slot, hence no pair
            // factors; the sweep bounds its 1.0 back to the
            // multiplicative identity.
            FragmentSlot::Relation => 1.0,
            // A never-logged fragment co-occurs with nothing: the sweep
            // turns its raw 0.0 into exactly the smoothing floor.
            FragmentSlot::Unknown => 0.0,
            FragmentSlot::Known(id) => {
                if lists_containing.get(&id).copied().unwrap_or(0) >= 2 {
                    // The fragment can be chosen for two keywords at
                    // once, making a self-pair (Dice = 1) possible.
                    1.0
                } else {
                    qfg.max_dice_by_id(id)
                }
            }
        }));
    }
    for value in flat.iter_mut() {
        *value = (*value + QFG_SMOOTHING).min(1.0);
    }
    let mut cursor = flat.iter();
    for list in resolved.iter_mut() {
        for candidate in list {
            candidate.pair_factor_cap = *cursor.next().expect("gather covers every candidate");
        }
    }
}

/// The deterministic tie-break bytes of an index tuple: its candidates'
/// sort keys joined with `|`, streamed without materializing the joined
/// `String` (the comparison is byte-identical to comparing the formatted
/// keys, pinned by a regression test).
fn joined_key_bytes<'r>(
    resolved: &'r [Vec<ResolvedCandidate>],
    indices: &'r [u32],
) -> impl Iterator<Item = u8> + 'r {
    indices.iter().enumerate().flat_map(move |(k, &i)| {
        let separator = if k > 0 { Some(b'|') } else { None };
        separator
            .into_iter()
            .chain(resolved[k][i as usize].sort_key.bytes())
    })
}

/// The total order all configuration rankings use: score descending, then
/// the joined tie-break key ascending, then the index tuple itself (the
/// enumeration order the pre-search stable sort preserved on full ties).
fn cmp_scored(
    resolved: &[Vec<ResolvedCandidate>],
    a: &ScoredTuple,
    b: &ScoredTuple,
) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| {
            joined_key_bytes(resolved, &a.indices).cmp(joined_key_bytes(resolved, &b.indices))
        })
        .then_with(|| a.indices.cmp(&b.indices))
}

/// Insert a scored tuple into a capacity-bounded ranking kept sorted under
/// [`cmp_scored`].  Selecting the top `capacity` this way is exactly
/// "sort everything, truncate" — without holding everything.
fn offer_tuple(
    resolved: &[Vec<ResolvedCandidate>],
    top: &mut Vec<ScoredTuple>,
    capacity: usize,
    tuple: ScoredTuple,
) {
    if top.len() == capacity {
        let Some(worst) = top.last() else { return };
        if cmp_scored(resolved, &tuple, worst) != std::cmp::Ordering::Less {
            return;
        }
        top.pop();
    }
    let at = top.partition_point(|e| cmp_scored(resolved, e, &tuple) == std::cmp::Ordering::Less);
    top.insert(at, tuple);
}

/// Scores one index tuple against the columnar QFG via the pairwise
/// [`qfg_breakdown`] — the executable specification of a configuration's
/// score, used by the exhaustive reference enumerator (the best-first
/// search reproduces it bit-for-bit through prefix-incremental state).
struct TupleScorer<'a> {
    qfg: &'a QueryFragmentGraph,
    lambda: f64,
    resolved: &'a [Vec<ResolvedCandidate>],
}

impl TupleScorer<'_> {
    fn score(&self, indices: Vec<u32>) -> ScoredTuple {
        let sigma = geometric_mean(
            indices
                .iter()
                .enumerate()
                .map(|(k, &i)| self.resolved[k][i as usize].sigma),
        );
        let slots: Vec<FragmentSlot> = indices
            .iter()
            .enumerate()
            .map(|(k, &i)| self.resolved[k][i as usize].slot)
            .filter(|slot| *slot != FragmentSlot::Relation)
            .collect();
        let breakdown = qfg_breakdown(self.qfg, &slots, indices.len());
        let qfg_score = if breakdown.pairs == 0 {
            breakdown.log_popularity
        } else {
            breakdown.dice
        };
        let score = self.lambda * sigma + (1.0 - self.lambda) * qfg_score;
        ScoredTuple {
            indices,
            sigma,
            log_popularity: breakdown.log_popularity,
            dice: breakdown.dice,
            pairs: breakdown.pairs,
            score,
        }
    }
}

/// Enumerate and score the whole cartesian product (odometer order — the
/// lexicographic index order the old enumerator generated), selecting the
/// top `capacity` under [`cmp_scored`].
fn exhaustive_top_k(
    scorer: &TupleScorer<'_>,
    resolved: &[Vec<ResolvedCandidate>],
    capacity: usize,
) -> (Vec<ScoredTuple>, SearchStats) {
    let mut top: Vec<ScoredTuple> = Vec::with_capacity(capacity.min(64));
    let mut stats = SearchStats::default();
    let mut indices = vec![0u32; resolved.len()];
    loop {
        stats.tuples_scored += 1;
        offer_tuple(resolved, &mut top, capacity, scorer.score(indices.clone()));
        // Advance the odometer, most-significant keyword first.
        let mut level = resolved.len();
        loop {
            if level == 0 {
                return (top, stats);
            }
            level -= 1;
            indices[level] += 1;
            if (indices[level] as usize) < resolved[level].len() {
                break;
            }
            indices[level] = 0;
        }
    }
}

/// Absolute slack added to every admissible upper bound before comparing
/// it with the score floor.  The bound arithmetic reorders the floating-
/// point operations of the exact leaf score (products of per-keyword
/// maxima instead of per-candidate values), so without slack an ulp-level
/// rounding difference could prune a true top-k member; 1e-9 dwarfs any
/// accumulated rounding error at these magnitudes while costing next to
/// nothing in pruning power.
const BOUND_MARGIN: f64 = 1e-9;

/// Prefix-incremental score state of the best-first search.  Extending a
/// prefix by one candidate updates this in O(prefix slots) — the pair
/// factors against the new slot — instead of rescoring all O(k²) pairs,
/// and performs the *identical* floating-point operation sequence as
/// [`TupleScorer::score`] / [`qfg_breakdown`] on the complete tuple, so a
/// leaf finalized from this state is bit-for-bit the exhaustive score.
#[derive(Clone, Copy)]
struct PrefixState {
    /// Running product of the mappings' σ (keyword order).
    sigma_product: f64,
    /// Running product of the smoothed pair factors (the order
    /// [`qfg_breakdown`] multiplies them in).
    pair_product: f64,
    /// Running sum of the non-relation slots' popularity (slot order).
    pop_sum: f64,
    /// Maximum popularity among the prefix's slots (for the admissible
    /// log-popularity bound: a mean never exceeds its maximum element).
    max_pop: f64,
}

impl PrefixState {
    fn empty() -> Self {
        PrefixState {
            sigma_product: 1.0,
            pair_product: 1.0,
            pop_sum: 0.0,
            max_pop: 0.0,
        }
    }
}

/// The exact best-first configuration search (branch-and-bound DFS over
/// index prefixes).
///
/// Each keyword's pruned candidates are already sorted by σ descending, so
/// depth-first descent finds strong configurations early; the score floor
/// (the k-th best score of the walk's own top-k, once that is full) then
/// lets the **admissible upper bound** cut entire prefix subtrees that
/// provably cannot enter the top k.  The bound blends
///
/// * `λ ·` the best completable geometric σ — the prefix's running σ
///   product times the precomputed product of per-keyword maxima over the
///   remaining keywords, and
/// * `(1−λ) ·` an optimistic `Score_QFG` completion — the prefix's running
///   pair product times caps on every *guaranteed* future pair factor
///   (from the QFG's per-fragment `max_dice` column), or the best
///   reachable log popularity when the configuration can finish with
///   fewer than two fragments.
///
/// Because the bound is admissible and pruning is strict (`ub < floor`,
/// with ties retained), the result is byte-identical to exhaustively
/// scoring the cartesian product — same scores, same order, same
/// tie-breaks — whenever the search completes within
/// [`TemplarConfig::search_budget`]; the budget turns a pathological
/// many-keyword request into a best-effort ranking with an explicit
/// `budget_exhausted` flag instead of unbounded work.  The walk is one
/// deterministic depth-first pass, so a budget-cut ranking and its
/// statistics are the same on every call.
struct ConfigurationSearch<'a> {
    qfg: &'a QueryFragmentGraph,
    lambda: f64,
    top_k: usize,
    resolved: &'a [Vec<ResolvedCandidate>],
    keyword_count: usize,
    /// `[d]`: product over keywords `k ≥ d` of the list's maximum σ.
    max_sigma_suffix: Vec<f64>,
    /// `[d]`: maximum candidate popularity over keywords `k ≥ d`.
    max_pop_suffix: Vec<f64>,
    /// `[d]`: how many keywords `k ≥ d` *must* add a fragment slot (every
    /// candidate is a non-relation mapping).
    must_remaining: Vec<usize>,
    /// `[d][m]`: admissible cap on the product of all future pair factors
    /// a completion from depth `d` with `m` prefix slots is guaranteed to
    /// multiply in — each must-add keyword `k ≥ d` contributes its best
    /// pair-factor cap once per slot guaranteed to precede it.
    dice_bound: Vec<Vec<f64>>,
    /// `[d]`: number of complete tuples below one depth-`d` prefix
    /// (saturating), for the pruned-tuple accounting.
    suffix_tuples: Vec<u64>,
    /// Work budget (`TemplarConfig::search_budget`): one unit per prefix
    /// extension evaluated, which hard-caps total search work at
    /// `O(budget · keywords)` regardless of the product size.
    budget: u64,
    /// Prefix extensions charged against `budget` so far.
    evaluations: u64,
    /// The current prefix's candidate indices, one per visited keyword.
    indices: Vec<u32>,
    /// The prefix's non-relation slots, in keyword order.
    slots: Vec<FragmentSlot>,
    /// `slots` flattened to raw interned ids (`ABSENT_FRAGMENT` for
    /// never-logged fragments), kept in lockstep so each extension runs the
    /// pair factors as one contiguous [`QueryFragmentGraph::gather_dice`]
    /// pass instead of a per-prior branchy lookup.
    slot_ids: Vec<u32>,
    dice_scratch: DiceGatherScratch,
    dice_buf: Vec<f64>,
    /// The best tuples so far, kept sorted under [`cmp_scored`] and capped
    /// at `top_k` by [`offer_tuple`]: the final ranking as it stands.
    top: Vec<ScoredTuple>,
    stats: SearchStats,
}

impl<'a> ConfigurationSearch<'a> {
    fn new(
        qfg: &'a QueryFragmentGraph,
        config: &TemplarConfig,
        resolved: &'a [Vec<ResolvedCandidate>],
    ) -> Self {
        let k = resolved.len();
        let mut max_sigma_suffix = vec![1.0f64; k + 1];
        let mut max_pop_suffix = vec![0.0f64; k + 1];
        let mut must_remaining = vec![0usize; k + 1];
        let mut suffix_tuples = vec![1u64; k + 1];
        let must: Vec<bool> = resolved
            .iter()
            .map(|list| list.iter().all(|c| c.slot != FragmentSlot::Relation))
            .collect();
        let caps: Vec<f64> = resolved
            .iter()
            .map(|list| list.iter().map(|c| c.pair_factor_cap).fold(0.0, f64::max))
            .collect();
        for d in (0..k).rev() {
            let best_sigma = resolved[d].iter().map(|c| c.sigma).fold(0.0, f64::max);
            max_sigma_suffix[d] = best_sigma * max_sigma_suffix[d + 1];
            max_pop_suffix[d] = resolved[d]
                .iter()
                .map(|c| c.popularity)
                .fold(max_pop_suffix[d + 1], f64::max);
            must_remaining[d] = must_remaining[d + 1] + usize::from(must[d]);
            suffix_tuples[d] = suffix_tuples[d + 1].saturating_mul(resolved[d].len() as u64);
        }
        // dice_bound[d][m]: walk the remaining must-add keywords in order;
        // the i-th of them is guaranteed m + i pair factors, each bounded
        // by that keyword's cap.  Caps are ≤ 1, so ignoring the *optional*
        // future pairs (relation-capable keywords) keeps the bound
        // admissible.
        let mut dice_bound = vec![vec![1.0f64; k + 1]; k + 1];
        for (d, row) in dice_bound.iter_mut().enumerate().take(k) {
            for (m, entry) in row.iter_mut().enumerate() {
                let mut guaranteed_slots = m as i32;
                let mut product = 1.0f64;
                for j in d..k {
                    if must[j] {
                        product *= caps[j].powi(guaranteed_slots);
                        guaranteed_slots += 1;
                    }
                }
                *entry = product;
            }
        }
        ConfigurationSearch {
            qfg,
            lambda: config.lambda,
            top_k: config.max_configurations,
            resolved,
            keyword_count: k,
            max_sigma_suffix,
            max_pop_suffix,
            must_remaining,
            dice_bound,
            suffix_tuples,
            // A starved budget still yields results: the walk always
            // completes its first depth-first dive (see the overdraw
            // handling in `explore`) before honouring exhaustion, so the
            // budget is taken as-is.
            budget: (config.search_budget as u64).max(1),
            evaluations: 0,
            indices: Vec::with_capacity(k),
            slots: Vec::with_capacity(k),
            slot_ids: Vec::with_capacity(k),
            dice_scratch: DiceGatherScratch::default(),
            dice_buf: Vec::with_capacity(k),
            top: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// Run the search and return the final ranking plus its statistics.
    #[cfg(test)]
    fn run(self) -> (Vec<ScoredTuple>, SearchStats) {
        self.run_traced(TraceCtx::disabled())
    }

    /// Run the search, reporting its busy time into `trace` as one search
    /// worker; the wall-clock `config_search` span, which also covers
    /// resolution and materialization, belongs to the caller.
    fn run_traced(mut self, trace: TraceCtx<'_>) -> (Vec<ScoredTuple>, SearchStats) {
        if self.top_k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let started = trace.worker_start();
        self.explore(0, PrefixState::empty());
        trace.finish_worker(started);
        (self.top, self.stats)
    }

    /// The score floor: the k-th best score once the top-k is full, `-∞`
    /// before.  [`offer_tuple`] replaces the worst entry only with a better
    /// one, so the floor never falls and a prefix cut against it stays cut
    /// for the final ranking.
    fn floor(&self) -> f64 {
        match self.top.last() {
            Some(worst) if self.top.len() == self.top_k => worst.score,
            _ => f64::NEG_INFINITY,
        }
    }

    /// True when no completion of the current prefix, extended to depth
    /// `d` with the given running state, can beat the floor.  Strict
    /// comparison: a completion that could *tie* the k-th score is kept,
    /// because the tie-break key may rank it inside the top k.
    fn prunable(&self, d: usize, state: &PrefixState) -> bool {
        let floor = self.floor();
        if floor == f64::NEG_INFINITY {
            return false;
        }
        let m = self.slots.len();
        let k = self.keyword_count as f64;
        let sigma_base = state.sigma_product * self.max_sigma_suffix[d];
        let ub_sigma = if sigma_base <= 0.0 {
            0.0
        } else {
            sigma_base.powf(1.0 / k)
        };
        let ub = if self.lambda >= 1.0 {
            // λ = 1: Score_QFG cannot contribute (the blend multiplies it
            // by zero), so the σ bound alone is admissible.
            self.lambda * ub_sigma
        } else {
            let ub_dice = (state.pair_product * self.dice_bound[d][m.min(self.keyword_count)])
                .powf(1.0 / k)
                .min(1.0);
            let ub_qfg = if m + self.must_remaining[d] >= 2 {
                // At least one pair is guaranteed: Score_QFG is the Dice
                // aggregation for every completion.
                ub_dice
            } else {
                // Completions may finish with < 2 slots, where Score_QFG
                // falls back to log popularity (a mean, bounded by its
                // largest element).
                ub_dice.max(state.max_pop.max(self.max_pop_suffix[d]))
            };
            self.lambda * ub_sigma + (1.0 - self.lambda) * ub_qfg
        };
        ub + BOUND_MARGIN < floor
    }

    /// Finalize the current, complete prefix into a scored tuple (same
    /// operation sequence as [`TupleScorer::score`], from the
    /// incrementally-carried state).
    fn finalize(&self, state: &PrefixState) -> ScoredTuple {
        let k = self.keyword_count;
        let slot_count = self.slots.len();
        let sigma = if state.sigma_product <= 0.0 {
            0.0
        } else {
            state.sigma_product.powf(1.0 / k as f64)
        };
        let log_popularity = if slot_count == 0 {
            0.0
        } else {
            state.pop_sum / slot_count as f64
        };
        let pairs = slot_count * slot_count.saturating_sub(1) / 2;
        let dice = if pairs == 0 {
            0.0
        } else {
            state.pair_product.powf(1.0 / k as f64).clamp(0.0, 1.0)
        };
        let qfg_score = if pairs == 0 { log_popularity } else { dice };
        let score = self.lambda * sigma + (1.0 - self.lambda) * qfg_score;
        ScoredTuple {
            indices: self.indices.clone(),
            sigma,
            log_popularity,
            dice,
            pairs,
            score,
        }
    }

    /// Charge one prefix extension against the budget; false once the
    /// budget is spent (the caller unwinds and returns its best).
    fn charge(&mut self) -> bool {
        if self.evaluations >= self.budget {
            return false;
        }
        self.evaluations += 1;
        true
    }

    /// Depth-first over the candidates of keyword `d`; returns false when
    /// the budget ran out and the whole search should unwind.
    fn explore(&mut self, d: usize, state: PrefixState) -> bool {
        let resolved = self.resolved;
        for (i, candidate) in resolved[d].iter().enumerate() {
            let overdrawn = !self.charge();
            if overdrawn {
                self.stats.budget_exhausted = true;
                if self.stats.tuples_scored > 0 {
                    return false;
                }
                // The budget is gone but the walk has not completed a
                // single configuration yet: keep following the current
                // (first) dive so even a starved budget yields a ranked
                // result.  The leaf arm below stops the walk right after
                // that first configuration is scored.
            }
            let mut next = state;
            next.sigma_product = state.sigma_product * candidate.sigma;
            let adds_slot = candidate.slot != FragmentSlot::Relation;
            if adds_slot {
                // Extend the pair product with the new slot's factors, in
                // the exact order `qfg_breakdown` visits them: one
                // contiguous gather over the prefix's flattened ids, then
                // one smooth-and-bound multiply sweep.
                match candidate.slot {
                    FragmentSlot::Known(id) => {
                        self.qfg.gather_dice(
                            id,
                            &self.slot_ids,
                            &mut self.dice_scratch,
                            &mut self.dice_buf,
                        );
                        for &dice in &self.dice_buf {
                            next.pair_product *= (dice + QFG_SMOOTHING).min(1.0);
                        }
                    }
                    // A fragment absent from the log co-occurs with
                    // nothing: every pair multiplies in the exact
                    // smoothing floor.
                    _ => {
                        for _ in 0..self.slot_ids.len() {
                            next.pair_product *= (0.0 + QFG_SMOOTHING).min(1.0);
                        }
                    }
                }
                next.pop_sum = state.pop_sum + candidate.popularity;
                if candidate.popularity > next.max_pop {
                    next.max_pop = candidate.popularity;
                }
                self.slots.push(candidate.slot);
                self.slot_ids.push(match candidate.slot {
                    FragmentSlot::Known(id) => id.index() as u32,
                    _ => ABSENT_FRAGMENT,
                });
            }
            self.indices.push(i as u32);
            let keep_going = if d + 1 == self.keyword_count {
                self.stats.tuples_scored += 1;
                let tuple = self.finalize(&next);
                offer_tuple(resolved, &mut self.top, self.top_k, tuple);
                !overdrawn
            } else if self.prunable(d + 1, &next) {
                self.stats.bound_cutoffs += 1;
                self.stats.tuples_pruned = self
                    .stats
                    .tuples_pruned
                    .saturating_add(self.suffix_tuples[d + 1]);
                true
            } else {
                self.explore(d + 1, next)
            };
            self.indices.pop();
            if adds_slot {
                self.slots.pop();
                self.slot_ids.pop();
            }
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// `Score_QFG`, decomposed: the geometric aggregation of the Dice
/// coefficients of all pairs of non-relation fragments in the configuration
/// (Section V-C.2).  With fewer than two non-relation fragments there are no
/// pairs; the effective score falls back to the normalised occurrence
/// frequency of the fragments so that log evidence still contributes.  Both
/// components are returned so explanations can show which one drove the
/// blend.
///
/// Each Dice value is smoothed with a small additive constant before the
/// product is taken.  The paper's plain product would be annihilated by a
/// single never-co-occurring pair even when every other pair carries strong
/// evidence; smoothing preserves the ranking induced by the Dice values
/// while keeping partially-supported configurations comparable.
///
/// `slots` carries the configuration's non-relation fragments as resolved
/// ids; `phi` is the total number of mappings (relations included), exactly
/// as in the fragment-keyed implementation this replaces.
fn qfg_breakdown(qfg: &QueryFragmentGraph, slots: &[FragmentSlot], phi: usize) -> QfgBreakdown {
    // Flatten once to raw interned ids (`ABSENT_FRAGMENT` for fragments the
    // log has never seen) so both components run as contiguous gather +
    // sweep passes over the columnar arrays instead of per-slot branching.
    let ids: Vec<u32> = slots
        .iter()
        .map(|slot| match slot {
            FragmentSlot::Known(id) => id.index() as u32,
            _ => ABSENT_FRAGMENT,
        })
        .collect();
    let mut popularity = Vec::new();
    qfg.gather_popularity(&ids, &mut popularity);
    let log_popularity = if ids.is_empty() {
        0.0
    } else {
        popularity.iter().sum::<f64>() / ids.len() as f64
    };
    if ids.len() < 2 {
        return QfgBreakdown {
            log_popularity,
            dice: 0.0,
            pairs: 0,
        };
    }
    let mut product = 1.0f64;
    let mut pairs = 0usize;
    let mut scratch = DiceGatherScratch::default();
    let mut dice = Vec::new();
    // Pairs are visited in slot-append order — every pair the j-th slot
    // forms with its predecessors, for growing j — so the best-first
    // search's prefix-incremental pair product performs the identical
    // floating-point operation sequence and finalizes bit-for-bit equal.
    for j in 1..slots.len() {
        match slots[j] {
            FragmentSlot::Known(id) => {
                qfg.gather_dice(id, &ids[..j], &mut scratch, &mut dice);
                for &d in &dice {
                    product *= (d + QFG_SMOOTHING).min(1.0);
                }
            }
            // A fragment absent from the log co-occurs with nothing: every
            // pair it forms multiplies in the exact smoothing floor.
            _ => {
                for _ in 0..j {
                    product *= (0.0 + QFG_SMOOTHING).min(1.0);
                }
            }
        }
        pairs += j;
    }
    QfgBreakdown {
        log_popularity,
        dice: product.powf(1.0 / phi as f64).clamp(0.0, 1.0),
        pairs,
    }
}

/// The two components of `Score_QFG` (internal to scoring; the public
/// decomposition lives on [`Configuration`]).
struct QfgBreakdown {
    log_popularity: f64,
    dice: f64,
    pairs: usize,
}

/// Similarity discount applied to key-like attributes (`id`, `*_id`, and the
/// short surrogate keys `pid` / `aid` / ...): users refer to entities by
/// their names and titles, not by their identifiers, so a key should only win
/// a mapping when the query log (or an aggregate) supports it.
fn key_attribute_penalty(attr: &AttributeRef) -> f64 {
    let name = attr.attribute.to_lowercase();
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

/// Geometric mean of an iterator of scores (0 when any score is 0).
pub fn geometric_mean(scores: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = scores.collect();
    if values.is_empty() {
        return 0.0;
    }
    let product: f64 = values.iter().product();
    if product <= 0.0 {
        0.0
    } else {
        product.powf(1.0 / values.len() as f64)
    }
}

fn candidate_sort_key(c: &MappingCandidate) -> String {
    match &c.element {
        MappedElement::Relation(r) => format!("0:{r}"),
        MappedElement::Attribute { attr, .. } => format!("1:{attr}"),
        MappedElement::Predicate { attr, op, value } => format!("2:{attr}:{}:{value}", op.symbol()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Obscurity;
    use crate::qfg::QueryLog;
    use nlp::TextSimilarity;
    use relational::{DataType, Schema};

    /// A small academic database in the spirit of Figure 1.
    fn academic_db() -> Database {
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
            vec![
                1.into(),
                "Scalable Query Processing".into(),
                2003.into(),
                1.into(),
            ],
        )
        .unwrap();
        db.insert(
            "publication",
            vec![
                2.into(),
                "Interactive Data Exploration".into(),
                1997.into(),
                2.into(),
            ],
        )
        .unwrap();
        db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
        db.insert("journal", vec![2.into(), "TMC".into()]).unwrap();
        db
    }

    /// A log in which year predicates co-occur with publication.title, and
    /// journal-name predicates also co-occur with publication.title
    /// (Figure 3a).
    fn academic_log() -> QueryLog {
        let mut sql: Vec<String> = Vec::new();
        for _ in 0..25 {
            sql.push("SELECT j.name FROM journal j".into());
        }
        for _ in 0..5 {
            sql.push("SELECT p.title FROM publication p WHERE p.year > 2003".into());
        }
        for _ in 0..3 {
            sql.push(
                "SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid"
                    .into(),
            );
        }
        QueryLog::from_sql(sql.iter().map(String::as_str)).0
    }

    fn run_mapper(
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
    ) -> Vec<Configuration> {
        let db = academic_db();
        let qfg = QueryFragmentGraph::build(&academic_log(), config.obscurity);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, config);
        mapper.map_keywords(keywords)
    }

    #[test]
    fn numeric_keyword_maps_to_satisfiable_numeric_predicates() {
        let db = academic_db();
        let config = TemplarConfig::default();
        let qfg = QueryFragmentGraph::build(&QueryLog::new(), Obscurity::NoConstOp);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let kw = Keyword::new("after 2000");
        let meta = KeywordMetadata::filter_with_op(BinOp::Gt);
        let cands = mapper.keyword_candidates(&kw, &meta);
        // year (2003) satisfies "> 2000"; pid/jid values do not.
        assert!(cands.iter().any(|c| matches!(
            c,
            MappedElement::Predicate { attr, op: BinOp::Gt, .. } if attr.attribute == "year"
        )));
        assert!(!cands.iter().any(
            |c| matches!(c, MappedElement::Predicate { attr, .. } if attr.attribute == "pid")
        ));
    }

    #[test]
    fn select_keyword_considers_all_attributes() {
        let db = academic_db();
        let config = TemplarConfig::default();
        let qfg = QueryFragmentGraph::build(&QueryLog::new(), Obscurity::NoConstOp);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let cands = mapper.keyword_candidates(&Keyword::new("papers"), &KeywordMetadata::select());
        assert_eq!(cands.len(), db.attribute_refs().len());
    }

    #[test]
    fn value_keyword_maps_to_matching_text_values() {
        let db = academic_db();
        let config = TemplarConfig::default();
        let qfg = QueryFragmentGraph::build(&QueryLog::new(), Obscurity::NoConstOp);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let cands = mapper.keyword_candidates(&Keyword::new("TKDE"), &KeywordMetadata::filter());
        assert_eq!(cands.len(), 1);
        assert!(matches!(
            &cands[0],
            MappedElement::Predicate { attr, value: Literal::String(v), .. }
                if attr.attribute == "name" && v == "TKDE"
        ));
    }

    #[test]
    fn exact_value_matches_prune_everything_else() {
        let db = academic_db();
        let config = TemplarConfig::default();
        let qfg = QueryFragmentGraph::build(&QueryLog::new(), Obscurity::NoConstOp);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let kw = Keyword::new("TKDE");
        let cands = mapper.keyword_candidates(&kw, &KeywordMetadata::filter());
        let pruned = mapper.score_and_prune(&kw, cands);
        assert_eq!(pruned.len(), 1);
        assert!(pruned[0].score >= 1.0 - config.epsilon);
    }

    #[test]
    fn pruning_respects_kappa_and_keeps_ties() {
        let db = academic_db();
        let config = TemplarConfig::default().with_kappa(2);
        let qfg = QueryFragmentGraph::build(&QueryLog::new(), Obscurity::NoConstOp);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let kw = Keyword::new("papers");
        let cands = mapper.keyword_candidates(&kw, &KeywordMetadata::select());
        let pruned = mapper.score_and_prune(&kw, cands);
        assert!(pruned.len() >= 2);
        assert!(
            pruned.len() <= 6,
            "tie handling should not explode: {}",
            pruned.len()
        );
        // Sorted by score descending.
        for w in pruned.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn qfg_breaks_the_papers_ambiguity_in_example_5() {
        // Keywords of Example 5: "papers" (SELECT), "TKDE" (value),
        // "after 1995" (numeric).  With λ = 0.8 the QFG evidence must rank a
        // configuration mapping "papers" -> publication.title above one
        // mapping it to journal.name.
        let config = TemplarConfig::default();
        let keywords = vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (Keyword::new("TKDE"), KeywordMetadata::filter()),
            (
                Keyword::new("after 1995"),
                KeywordMetadata::filter_with_op(BinOp::Gt),
            ),
        ];
        let configs = run_mapper(&keywords, &config);
        assert!(!configs.is_empty());
        let best = &configs[0];
        let papers_mapping = &best.mappings[0];
        assert!(
            matches!(
                &papers_mapping.element,
                MappedElement::Attribute { attr, .. }
                    if attr.relation == "publication" && attr.attribute == "title"
            ),
            "best mapping was {:?}",
            papers_mapping.element
        );
        // Scores are all in [0, 1] and the list is sorted.
        for w in configs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for c in &configs {
            assert!((0.0..=1.0).contains(&c.sigma_score));
            assert!((0.0..=1.0).contains(&c.qfg_score));
            assert!((0.0..=1.0).contains(&c.score));
        }
    }

    #[test]
    fn lambda_one_ignores_the_log() {
        // With λ = 1 the ranking is purely similarity-driven, so the QFG
        // score must not affect the final score.
        let config = TemplarConfig::default().with_lambda(1.0);
        let keywords = vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (Keyword::new("TKDE"), KeywordMetadata::filter()),
        ];
        let configs = run_mapper(&keywords, &config);
        for c in &configs {
            assert!((c.score - c.sigma_score).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_keyword_list_produces_no_configurations() {
        let config = TemplarConfig::default();
        assert!(run_mapper(&[], &config).is_empty());
    }

    #[test]
    fn relation_bag_and_attribute_bag_reflect_mappings() {
        let config = TemplarConfig::default();
        let keywords = vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (Keyword::new("TKDE"), KeywordMetadata::filter()),
        ];
        let configs = run_mapper(&keywords, &config);
        let best = &configs[0];
        let bag = best.relation_bag();
        assert_eq!(bag.len(), 2);
        assert!(bag.contains(&"publication".to_string()) || bag.contains(&"journal".to_string()));
        assert_eq!(best.attribute_bag().len(), 2);
    }

    #[test]
    fn geometric_mean_properties() {
        assert_eq!(geometric_mean([].into_iter()), 0.0);
        assert!((geometric_mean([0.25, 1.0].into_iter()) - 0.5).abs() < 1e-12);
        assert_eq!(geometric_mean([0.5, 0.0].into_iter()), 0.0);
    }

    #[test]
    fn scoring_never_clones_query_fragments() {
        // The id-based hot path is contractually clone-free: candidates are
        // resolved to FragmentIds once per request and every score is pure
        // array arithmetic.  The search runs on the calling thread, so the
        // thread-local counter observes the entire path.
        let db = academic_db();
        let config = TemplarConfig::default();
        let qfg = QueryFragmentGraph::build(&academic_log(), config.obscurity);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let keywords = vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (Keyword::new("TKDE"), KeywordMetadata::filter()),
            (
                Keyword::new("after 1995"),
                KeywordMetadata::filter_with_op(BinOp::Gt),
            ),
        ];
        let before = crate::fragment::clone_counter::current();
        let configs = mapper.map_keywords(&keywords);
        let cloned = crate::fragment::clone_counter::current() - before;
        assert!(!configs.is_empty());
        assert_eq!(
            cloned, 0,
            "MAPKEYWORDS must not clone any QueryFragment; counted {cloned}"
        );
    }

    // -----------------------------------------------------------------
    // Best-first search: exactness, determinism and bound admissibility
    // -----------------------------------------------------------------

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The joined tie-break key as the pre-search implementation formatted
    /// it (an allocated `String`); the streamed byte comparator must order
    /// tuples exactly like comparing these.
    fn joined_sort_key_string(resolved: &[Vec<ResolvedCandidate>], indices: &[u32]) -> String {
        let mut key = String::new();
        for (k, &i) in indices.iter().enumerate() {
            if k > 0 {
                key.push('|');
            }
            key.push_str(&resolved[k][i as usize].sort_key);
        }
        key
    }

    /// A random QFG plus per-keyword candidate lists over its fragments.
    /// σ values are drawn from a coarse grid so exact score ties (the
    /// tie-break comparator's job) actually occur.
    fn random_search_input(
        seed: u64,
        keywords: usize,
        max_candidates: usize,
    ) -> (QueryFragmentGraph, Vec<Vec<ResolvedCandidate>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sql: Vec<String> = Vec::new();
        let tables = [("publication", "p"), ("journal", "j"), ("author", "a")];
        let cols = ["title", "name", "year"];
        for _ in 0..rng.gen_range(1..30usize) {
            let (table, alias) = tables[rng.gen_range(0..tables.len())];
            let mut q = format!(
                "SELECT {alias}.{} FROM {table} {alias}",
                cols[rng.gen_range(0..cols.len())]
            );
            if rng.gen_range(0..2u32) == 0 {
                q.push_str(&format!(
                    " WHERE {alias}.{} > {}",
                    cols[rng.gen_range(0..cols.len())],
                    rng.gen_range(0..5i64)
                ));
            }
            sql.push(q);
        }
        let (log, _) = QueryLog::from_sql(sql.iter().map(String::as_str));
        let qfg = QueryFragmentGraph::build(&log, Obscurity::NoConstOp);
        let ids: Vec<FragmentId> = qfg
            .fragments()
            .map(|(f, _)| qfg.lookup(f).unwrap())
            .collect();
        let keys = ["a", "ab", "abc", "b", "b|c", "k0", "k1"];
        let resolved: Vec<Vec<ResolvedCandidate>> = (0..keywords)
            .map(|_| {
                (0..rng.gen_range(1..=max_candidates))
                    .map(|_| {
                        let slot = match rng.gen_range(0..4u32) {
                            0 => FragmentSlot::Relation,
                            1 => FragmentSlot::Unknown,
                            _ if !ids.is_empty() => {
                                FragmentSlot::Known(ids[rng.gen_range(0..ids.len())])
                            }
                            _ => FragmentSlot::Unknown,
                        };
                        let popularity = match slot {
                            FragmentSlot::Known(id) => {
                                qfg.occurrences_by_id(id) as f64 / qfg.query_count().max(1) as f64
                            }
                            _ => 0.0,
                        };
                        ResolvedCandidate {
                            sigma: rng.gen_range(0..=8u32) as f64 / 8.0,
                            slot,
                            sort_key: keys[rng.gen_range(0..keys.len())].to_string(),
                            popularity,
                            pair_factor_cap: 1.0,
                        }
                    })
                    .collect()
            })
            .collect();
        let resolved = finish_resolution(&qfg, resolved);
        (qfg, resolved)
    }

    /// Run the production cap assignment over directly-built candidate
    /// lists (the generator above bypasses the mapper).
    fn finish_resolution(
        qfg: &QueryFragmentGraph,
        mut resolved: Vec<Vec<ResolvedCandidate>>,
    ) -> Vec<Vec<ResolvedCandidate>> {
        assign_pair_factor_caps(qfg, &mut resolved);
        resolved
    }

    /// The simplest possible reference: score *everything*, sort with the
    /// original allocated-string tie-break, truncate.
    fn full_sort_reference(
        qfg: &QueryFragmentGraph,
        lambda: f64,
        resolved: &[Vec<ResolvedCandidate>],
        top_k: usize,
    ) -> Vec<ScoredTuple> {
        let scorer = TupleScorer {
            qfg,
            lambda,
            resolved,
        };
        let mut all: Vec<ScoredTuple> = Vec::new();
        let mut indices = vec![0u32; resolved.len()];
        'enumerate: loop {
            all.push(scorer.score(indices.clone()));
            let mut level = resolved.len();
            loop {
                if level == 0 {
                    break 'enumerate;
                }
                level -= 1;
                indices[level] += 1;
                if (indices[level] as usize) < resolved[level].len() {
                    break;
                }
                indices[level] = 0;
            }
        }
        all.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    joined_sort_key_string(resolved, &a.indices)
                        .cmp(&joined_sort_key_string(resolved, &b.indices))
                })
                .then_with(|| a.indices.cmp(&b.indices))
        });
        all.truncate(top_k);
        all
    }

    fn assert_tuples_identical(label: &str, a: &[ScoredTuple], b: &[ScoredTuple]) {
        assert_eq!(a.len(), b.len(), "{label}: ranking lengths differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.indices, y.indices, "{label}: tuple order differs");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: score bits");
            assert_eq!(x.sigma.to_bits(), y.sigma.to_bits(), "{label}: sigma bits");
            assert_eq!(
                x.log_popularity.to_bits(),
                y.log_popularity.to_bits(),
                "{label}: log-popularity bits"
            );
            assert_eq!(x.dice.to_bits(), y.dice.to_bits(), "{label}: dice bits");
            assert_eq!(x.pairs, y.pairs, "{label}: pair counts");
        }
    }

    fn search_config() -> TemplarConfig {
        TemplarConfig::default().with_search_budget(usize::MAX)
    }

    proptest! {
        /// The best-first search is byte-identical — scores, order and every
        /// explanation component — to scoring the entire cartesian product
        /// and sorting it with the original string tie-break, on random
        /// candidate lists over random QFGs, at several λ.
        #[test]
        fn best_first_search_is_byte_identical_to_exhaustive(
            seed in any::<u64>(),
            keywords in 1usize..6,
            lambda_grid in 0u32..5,
        ) {
            let (qfg, resolved) = random_search_input(seed, keywords, 4);
            let lambda = f64::from(lambda_grid) / 4.0;
            let config = search_config().with_lambda(lambda);
            let reference = full_sort_reference(
                &qfg, lambda, &resolved, config.max_configurations,
            );
            let (found, stats) = ConfigurationSearch::new(&qfg, &config, &resolved).run();
            prop_assert!(!stats.budget_exhausted);
            assert_tuples_identical(&format!("seed {seed} λ {lambda}"), &reference, &found);
        }

        /// The streamed joined-key comparator orders index tuples exactly
        /// like comparing the allocated joined strings — including the
        /// prefix-vs-separator cases (`"ab" | "x"` vs `"abc" | "a"`) where
        /// per-component comparison would get it wrong.
        #[test]
        fn streamed_key_comparison_matches_string_comparison(seed in any::<u64>()) {
            let (_, resolved) = random_search_input(seed, 3, 4);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
            for _ in 0..32 {
                let pick = |rng: &mut StdRng| -> Vec<u32> {
                    resolved
                        .iter()
                        .map(|list| rng.gen_range(0..list.len()) as u32)
                        .collect()
                };
                let a = pick(&mut rng);
                let b = pick(&mut rng);
                let streamed = joined_key_bytes(&resolved, &a)
                    .cmp(joined_key_bytes(&resolved, &b));
                let allocated = joined_sort_key_string(&resolved, &a)
                    .cmp(&joined_sort_key_string(&resolved, &b));
                prop_assert_eq!(streamed, allocated);
            }
        }
    }

    #[test]
    fn streamed_key_comparison_pins_the_separator_prefix_case() {
        // keys ["ab", "x"] vs ["abc", "a"]: joined "ab|x" > "abc|a"
        // because '|' (0x7C) sorts after 'c' (0x63).  Naive per-component
        // comparison would order them the other way around.
        let mk = |keys: [&str; 2]| -> Vec<ResolvedCandidate> {
            keys.iter()
                .map(|k| ResolvedCandidate {
                    sigma: 0.5,
                    slot: FragmentSlot::Unknown,
                    sort_key: (*k).to_string(),
                    popularity: 0.0,
                    pair_factor_cap: QFG_SMOOTHING,
                })
                .collect()
        };
        let resolved = vec![mk(["ab", "abc"]), mk(["x", "a"])];
        let left = [0u32, 0u32]; // "ab|x"
        let right = [1u32, 1u32]; // "abc|a"
        assert_eq!(
            joined_key_bytes(&resolved, &left).cmp(joined_key_bytes(&resolved, &right)),
            joined_sort_key_string(&resolved, &left)
                .cmp(&joined_sort_key_string(&resolved, &right)),
        );
        assert_eq!(
            joined_key_bytes(&resolved, &left).cmp(joined_key_bytes(&resolved, &right)),
            std::cmp::Ordering::Greater,
        );
    }

    #[test]
    fn map_keywords_matches_the_exhaustive_enumerator_end_to_end() {
        let db = academic_db();
        let config = TemplarConfig::default().with_search_budget(usize::MAX);
        let qfg = QueryFragmentGraph::build(&academic_log(), config.obscurity);
        let sim = TextSimilarity::new();
        let mapper = KeywordMapper::new(&db, &qfg, &sim, &config);
        let keywords = vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (Keyword::new("TKDE"), KeywordMetadata::filter()),
            (
                Keyword::new("after 1995"),
                KeywordMetadata::filter_with_op(BinOp::Gt),
            ),
        ];
        let (best_first, search_stats) = mapper.map_keywords_with_stats(&keywords);
        let (exhaustive, reference_stats) = mapper.map_keywords_exhaustive(&keywords);
        assert_eq!(best_first, exhaustive);
        assert!(!search_stats.budget_exhausted);
        assert!(!reference_stats.budget_exhausted);
        assert!(search_stats.tuples_scored <= reference_stats.tuples_scored);
        assert_eq!(
            search_stats.tuples_scored + search_stats.tuples_pruned,
            reference_stats.tuples_scored,
            "every tuple is either scored or provably pruned"
        );
    }

    #[test]
    fn exhausted_budget_is_flagged_and_bounds_the_work() {
        let (qfg, resolved) = random_search_input(7, 5, 4);
        let config = search_config().with_search_budget(10);
        let search = ConfigurationSearch::new(&qfg, &config, &resolved);
        let (found, stats) = search.run();
        assert!(
            stats.budget_exhausted,
            "a 10-evaluation budget must run out"
        );
        assert!(stats.tuples_scored <= 10);
        // What it did return is still sorted under the total order.
        for pair in found.windows(2) {
            assert_eq!(
                cmp_scored(&resolved, &pair[0], &pair[1]),
                std::cmp::Ordering::Less
            );
        }
        // And a generous budget on the same input is exact and unflagged.
        let config = search_config();
        let search = ConfigurationSearch::new(&qfg, &config, &resolved);
        let (_, stats) = search.run();
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn starved_budget_yields_a_result_even_with_parallel_workers() {
        // A 2-evaluation budget runs out halfway down a 4-keyword dive: the
        // walk must still finish that first dive and return exactly one
        // complete configuration, never an empty result.
        let (qfg, resolved) = random_search_input(11, 4, 8);
        let config = search_config().with_search_budget(2);
        let (found, stats) = ConfigurationSearch::new(&qfg, &config, &resolved).run();
        assert!(stats.budget_exhausted);
        assert_eq!(stats.tuples_scored, 1);
        assert_eq!(
            found.len(),
            1,
            "the first dive completes before honouring exhaustion"
        );
        assert_eq!(found[0].indices, vec![0; resolved.len()]);
    }
}
