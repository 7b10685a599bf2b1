//! The Templar facade (Figure 2).
//!
//! A [`Templar`] instance wraps a database, the Query Fragment Graph built
//! from the SQL query log, a word-similarity model and the configuration
//! parameters.  It exposes exactly the two interface calls the paper defines
//! for host NLIDBs:
//!
//! * [`Templar::map_keywords`] — `MAPKEYWORDS(D, S, M)`, and
//! * [`Templar::infer_joins`] — `INFERJOINS(G_s, B_D)`.
//!
//! Both calls also exist in `_with` variants that take an explicit
//! [`TemplarConfig`], so a serving layer can apply per-request overrides
//! (λ, `use_log_joins`) against the same immutable snapshot without
//! rebuilding anything.

use crate::config::TemplarConfig;
use crate::error::{JoinInferenceError, TemplarError};
use crate::join::{infer_joins, BagItem, JoinInference};
use crate::keyword::{Configuration, Keyword, KeywordMapper, KeywordMetadata, SearchStats};
use crate::qfg::{QueryFragmentGraph, QueryLog};
use crate::trace::{Stage, TraceCtx};
use nlp::TextSimilarity;
use parking_lot::Mutex;
use relational::Database;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One bag element of a join-cache key, pre-lowercased.  Structured (instead
/// of a formatted string) so lookups hash a small tuple rather than allocate
/// and join a signature string on every call.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum BagKeyItem {
    Relation(String),
    Attribute(String, String),
}

/// Cache key for one join inference.  Besides the (sorted) relation bag it
/// carries every configuration parameter that can change the inference
/// result or its interpretation — so a request served under per-request
/// overrides can never alias a cached inference computed under different
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JoinCacheKey {
    bag: Vec<BagKeyItem>,
    use_log_joins: bool,
    join_candidates: usize,
    /// λ does not enter join inference arithmetic, but it is part of the
    /// request contract; keeping it in the key guarantees full isolation
    /// between override configurations (bit-exact comparison).
    lambda_bits: u64,
}

impl JoinCacheKey {
    fn new(bag: &[BagItem], config: &TemplarConfig) -> Self {
        let mut items: Vec<BagKeyItem> = bag
            .iter()
            .map(|item| match item {
                BagItem::Relation(r) => BagKeyItem::Relation(r.to_lowercase()),
                BagItem::Attribute(a) => {
                    BagKeyItem::Attribute(a.relation.to_lowercase(), a.attribute.to_lowercase())
                }
            })
            .collect();
        items.sort();
        JoinCacheKey {
            bag: items,
            use_log_joins: config.use_log_joins,
            join_candidates: config.join_candidates,
            lambda_bits: config.lambda.to_bits(),
        }
    }
}

/// Bounded join-inference cache with oldest-first (FIFO) eviction.
struct JoinCache {
    map: HashMap<JoinCacheKey, Arc<JoinInference>>,
    /// Insertion order; each key appears exactly once (inserts happen only
    /// on a miss).
    order: VecDeque<JoinCacheKey>,
    capacity: usize,
}

impl JoinCache {
    fn new(capacity: usize) -> Self {
        JoinCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: &JoinCacheKey) -> Option<Arc<JoinInference>> {
        self.map.get(key).map(Arc::clone)
    }

    /// Insert, evicting oldest entries beyond capacity.  Returns the number
    /// of evictions performed.
    fn insert(&mut self, key: JoinCacheKey, value: Arc<JoinInference>) -> u64 {
        if let Some(existing) = self.map.get_mut(&key) {
            // Two threads can miss on the same bag concurrently and both
            // compute the inference; the second insert replaces the value in
            // place — it must not evict an unrelated resident entry.
            *existing = value;
            return 0;
        }
        let mut evicted = 0u64;
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        self.map.insert(key.clone(), value);
        self.order.push_back(key);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Point-in-time join-cache statistics, observable by the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run join inference.
    pub misses: u64,
    /// Entries evicted to stay within the configured capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity bound.
    pub capacity: usize,
}

/// The Templar system.
pub struct Templar {
    db: Arc<Database>,
    qfg: QueryFragmentGraph,
    similarity: TextSimilarity,
    config: TemplarConfig,
    /// Cache of join inferences keyed by the structured bag signature plus
    /// the (possibly overridden) parameters the inference ran under.  Join
    /// inference is the most expensive step and the same bag recurs for
    /// every configuration that maps keywords to the same relations.
    join_cache: Mutex<JoinCache>,
    /// Join-cache hit / miss / eviction counters.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

impl Templar {
    /// Build Templar for a database, a SQL query log and a configuration.
    pub fn new(
        db: Arc<Database>,
        log: &QueryLog,
        config: TemplarConfig,
    ) -> Result<Self, TemplarError> {
        let qfg = QueryFragmentGraph::build(log, config.obscurity);
        Self::from_parts(db, qfg, TextSimilarity::new(), config)
    }

    /// Build Templar with an explicit similarity model (used by tests and by
    /// the NaLIR wrapper which prefers a lexicon-only model).
    pub fn with_similarity(
        db: Arc<Database>,
        log: &QueryLog,
        config: TemplarConfig,
        similarity: TextSimilarity,
    ) -> Result<Self, TemplarError> {
        let qfg = QueryFragmentGraph::build(log, config.obscurity);
        Self::from_parts(db, qfg, similarity, config)
    }

    /// Build Templar from an already-constructed Query Fragment Graph.
    ///
    /// This is the constructor the serving layer uses when it refreshes a
    /// snapshot: the service maintains the QFG incrementally
    /// ([`QueryFragmentGraph::ingest`]) and hands a clone here, so a refresh
    /// costs one graph clone instead of a full log replay.
    ///
    /// Fails with [`TemplarError::ObscurityMismatch`] if the graph's
    /// obscurity level does not match `config.obscurity` — mixing levels
    /// would silently produce wrong Dice scores.
    pub fn from_parts(
        db: Arc<Database>,
        mut qfg: QueryFragmentGraph,
        similarity: TextSimilarity,
        config: TemplarConfig,
    ) -> Result<Self, TemplarError> {
        if qfg.obscurity() != config.obscurity {
            return Err(TemplarError::ObscurityMismatch {
                expected: config.obscurity,
                found: qfg.obscurity(),
            });
        }
        // A facade is an immutable snapshot: fold any pending delta into the
        // CSR now so every lookup on the serving path takes the compacted
        // fast path (binary search + precomputed Dice denominator).
        qfg.compact();
        let capacity = config.join_cache_capacity;
        Ok(Templar {
            db,
            qfg,
            similarity,
            config,
            join_cache: Mutex::new(JoinCache::new(capacity)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &TemplarConfig {
        &self.config
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// A clone of the shared database handle.
    pub fn database_handle(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The Query Fragment Graph.
    pub fn qfg(&self) -> &QueryFragmentGraph {
        &self.qfg
    }

    /// The word similarity model.
    pub fn similarity(&self) -> &TextSimilarity {
        &self.similarity
    }

    /// Join-cache statistics since construction.
    pub fn join_cache_stats(&self) -> JoinCacheStats {
        let (entries, capacity) = {
            let cache = self.join_cache.lock();
            (cache.len(), cache.capacity)
        };
        JoinCacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: self.cache_evictions.load(Ordering::Relaxed),
            entries,
            capacity,
        }
    }

    /// `MAPKEYWORDS`: map keywords (with metadata) to ranked configurations.
    pub fn map_keywords(&self, keywords: &[(Keyword, KeywordMetadata)]) -> Vec<Configuration> {
        self.map_keywords_with(keywords, &self.config)
    }

    /// `MAPKEYWORDS` under an explicit configuration (per-request overrides).
    ///
    /// The configuration's obscurity must equal the snapshot's — overrides
    /// may change λ, `use_log_joins`, κ and friends, but the QFG is fixed at
    /// its build-time obscurity.
    pub fn map_keywords_with(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
    ) -> Vec<Configuration> {
        self.map_keywords_with_stats(keywords, config).0
    }

    /// [`Templar::map_keywords_with`] plus the best-first search's
    /// [`SearchStats`] — configurations scored/pruned, bound cutoffs, and
    /// whether `config.search_budget` ran out before the ranking was proven
    /// exact.  The serving layer threads these into its metrics and into
    /// every explanation's `search_budget_exhausted` flag.
    pub fn map_keywords_with_stats(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
    ) -> (Vec<Configuration>, SearchStats) {
        self.map_keywords_traced(keywords, config, TraceCtx::disabled())
    }

    /// [`Templar::map_keywords_with_stats`] recording per-stage spans into
    /// `trace` (candidate pruning, configuration search, worker busy time).
    /// With [`TraceCtx::disabled`] this is the identical untraced fast
    /// path.
    pub fn map_keywords_traced(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
        trace: TraceCtx<'_>,
    ) -> (Vec<Configuration>, SearchStats) {
        let mapper = KeywordMapper::new(&self.db, &self.qfg, &self.similarity, config);
        mapper.map_keywords_traced(keywords, trace)
    }

    /// The exhaustive reference enumerator behind
    /// [`Templar::map_keywords`]: scores the *entire* cartesian product of
    /// pruned candidates under the given configuration (pass
    /// `templar.config()` to mirror [`Templar::map_keywords`]).
    /// Exponential — exposed for tests, benches and validation tooling
    /// that prove the best-first search exact, never for serving.
    pub fn map_keywords_exhaustive(
        &self,
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
    ) -> (Vec<Configuration>, SearchStats) {
        let mapper = KeywordMapper::new(&self.db, &self.qfg, &self.similarity, config);
        mapper.map_keywords_exhaustive(keywords)
    }

    /// `INFERJOINS`: ranked join paths for a bag of relations/attributes.
    pub fn infer_joins(&self, bag: &[BagItem]) -> Result<Arc<JoinInference>, JoinInferenceError> {
        self.infer_joins_with(bag, &self.config)
    }

    /// `INFERJOINS` under an explicit configuration (per-request overrides).
    /// Cached: the cache key includes the override parameters, so inferences
    /// computed under different configurations never alias.
    pub fn infer_joins_with(
        &self,
        bag: &[BagItem],
        config: &TemplarConfig,
    ) -> Result<Arc<JoinInference>, JoinInferenceError> {
        self.infer_joins_traced(bag, config, TraceCtx::disabled())
    }

    /// [`Templar::infer_joins_with`] recorded under
    /// [`Stage::JoinInference`] in `trace` — cache hits included, so the
    /// span's call count equals the number of inferences the request asked
    /// for while its duration exposes how much of that the cache absorbed.
    pub fn infer_joins_traced(
        &self,
        bag: &[BagItem],
        config: &TemplarConfig,
        trace: TraceCtx<'_>,
    ) -> Result<Arc<JoinInference>, JoinInferenceError> {
        let _span = trace.span(Stage::JoinInference);
        let key = JoinCacheKey::new(bag, config);
        if let Some(hit) = self.join_cache.lock().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let qfg = if config.use_log_joins {
            Some(&self.qfg)
        } else {
            None
        };
        let result = Arc::new(infer_joins(self.db.schema(), qfg, config, bag)?);
        let evicted = self.join_cache.lock().insert(key, Arc::clone(&result));
        if evicted > 0 {
            self.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::QueryContext;
    use relational::{AttributeRef, DataType, Schema};
    use sqlparse::BinOp;

    fn db() -> Arc<Database> {
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
                "Query Optimization Revisited".into(),
                2004.into(),
                1.into(),
            ],
        )
        .unwrap();
        db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
        Arc::new(db)
    }

    fn log() -> QueryLog {
        QueryLog::from_sql([
            "SELECT p.title FROM publication p WHERE p.year > 2000",
            "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
            "SELECT p.title FROM publication p, journal j WHERE j.name = 'TMC' AND p.jid = j.jid",
        ])
        .0
    }

    #[test]
    fn facade_exposes_both_interface_calls() {
        let templar = Templar::new(db(), &log(), TemplarConfig::default()).unwrap();
        // Keyword mapping.
        let keywords = vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (
                Keyword::new("after 2000"),
                KeywordMetadata::filter_with_op(BinOp::Gt),
            ),
        ];
        let configs = templar.map_keywords(&keywords);
        assert!(!configs.is_empty());
        // Join inference.
        let bag = vec![
            BagItem::Attribute(AttributeRef::new("publication", "title")),
            BagItem::Attribute(AttributeRef::new("journal", "name")),
        ];
        let inference = templar.infer_joins(&bag).unwrap();
        assert_eq!(inference.best().unwrap().path.edges.len(), 1);
    }

    #[test]
    fn obscurity_mismatch_is_a_typed_error_not_a_panic() {
        let config = TemplarConfig::default(); // NoConstOp
        let qfg = QueryFragmentGraph::build(&log(), crate::config::Obscurity::Full);
        match Templar::from_parts(db(), qfg, TextSimilarity::new(), config) {
            Err(err) => assert_eq!(
                err,
                TemplarError::ObscurityMismatch {
                    expected: crate::config::Obscurity::NoConstOp,
                    found: crate::config::Obscurity::Full,
                }
            ),
            Ok(_) => panic!("mismatched obscurity must be rejected"),
        }
    }

    #[test]
    fn join_inference_is_cached() {
        let templar = Templar::new(db(), &log(), TemplarConfig::default()).unwrap();
        let bag = vec![
            BagItem::Attribute(AttributeRef::new("publication", "title")),
            BagItem::Attribute(AttributeRef::new("journal", "name")),
        ];
        let first = templar.infer_joins(&bag).unwrap();
        let second = templar.infer_joins(&bag).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second call should hit the cache"
        );
        let stats = templar.join_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn override_configs_do_not_alias_cached_inferences() {
        let templar = Templar::new(db(), &log(), TemplarConfig::default()).unwrap();
        let bag = vec![
            BagItem::Attribute(AttributeRef::new("publication", "title")),
            BagItem::Attribute(AttributeRef::new("journal", "name")),
        ];
        let with_log = templar.infer_joins(&bag).unwrap();
        let no_log = templar
            .infer_joins_with(&bag, &TemplarConfig::default().with_log_joins(false))
            .unwrap();
        assert!(
            !Arc::ptr_eq(&with_log, &no_log),
            "different use_log_joins must be distinct cache entries"
        );
        // A different λ is also a distinct entry (never aliases).
        let lambda_override = templar
            .infer_joins_with(&bag, &TemplarConfig::default().with_lambda(0.3))
            .unwrap();
        assert!(!Arc::ptr_eq(&with_log, &lambda_override));
        assert_eq!(templar.join_cache_stats().misses, 3);
    }

    #[test]
    fn join_cache_is_bounded_with_fifo_eviction() {
        let config = TemplarConfig::default().with_join_cache_capacity(2);
        let templar = Templar::new(db(), &log(), config).unwrap();
        let bags: Vec<Vec<BagItem>> = vec![
            vec![BagItem::Relation("publication".into())],
            vec![BagItem::Relation("journal".into())],
            vec![
                BagItem::Attribute(AttributeRef::new("publication", "title")),
                BagItem::Attribute(AttributeRef::new("journal", "name")),
            ],
        ];
        for bag in &bags {
            templar.infer_joins(bag).unwrap();
        }
        let stats = templar.join_cache_stats();
        assert_eq!(stats.capacity, 2);
        assert!(stats.entries <= 2, "cache exceeded its bound");
        assert_eq!(stats.evictions, 1, "third insert evicts the oldest entry");
        // The oldest bag was evicted: looking it up again is a miss.
        templar.infer_joins(&bags[0]).unwrap();
        assert_eq!(templar.join_cache_stats().misses, 4);
    }

    #[test]
    fn qfg_is_built_at_the_configured_obscurity() {
        let templar = Templar::new(db(), &log(), TemplarConfig::default()).unwrap();
        let frag = crate::fragment::QueryFragment {
            expr: "publication.year ?op ?val".into(),
            context: QueryContext::Where,
        };
        assert_eq!(templar.qfg().occurrences(&frag), 1);
        assert_eq!(templar.qfg().query_count(), 3);
    }
}
