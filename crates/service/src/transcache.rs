//! The translation cache — the serving plane's repeated-traffic fast path.
//!
//! Real NLIDB traffic is Zipfian: the query log exists because users ask
//! the same questions over and over (the paper's premise).
//! [`TranslationCache`] maps (normalized question, keywords, override
//! signature) to a complete successful `TranslateResponse`.
//!
//! A cache belongs to exactly one published snapshot.  The service keeps
//! each snapshot and its cache together as one value, a request looks up,
//! computes and inserts against the pair it loaded, and a publish installs
//! a new pair with an empty cache.  An entry therefore can never be served
//! from a snapshot other than the one that computed it, and a hit is
//! byte-identical to recomputing against that snapshot.  The old cache is
//! freed with the last request still holding its snapshot.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use templar_api::{RequestOverrides, TranslateResponse};
use templar_core::{Keyword, KeywordMetadata, SearchStats};

/// Shard count of the translation cache (a power of two; requests hash
/// across shards so concurrent lookups rarely contend on one lock).
const SHARDS: usize = 8;

/// Append one canonically-serialized component to a cache key: the
/// component's JSON form behind an explicit byte-length prefix.  The length
/// prefix makes concatenation unambiguous whatever the content — no two
/// distinct component sequences can collide by resegmentation.  Returns
/// `false` if the component refuses to serialize; the caller must then
/// treat the whole key as unusable rather than cache under a prefix.
fn push_canonical<T: serde::Serialize>(key: &mut String, part: &T) -> bool {
    match serde_json::to_string(part) {
        Ok(json) => {
            key.push_str(&format!("{}:", json.len()));
            key.push_str(&json);
            true
        }
        Err(_) => false,
    }
}

/// The cache key of one translate request: the question normalized
/// (lowercased, whitespace collapsed), the exact keyword tuples, and the
/// override signature.  λ is keyed by its *bit pattern* so `0.3` and the
/// nearest-but-different float never alias; `search_budget` and the other
/// structural parameters are fixed per tenant and per snapshot, so they do
/// not appear here.
///
/// Keyword tuples are keyed by their *canonical serialization*
/// ([`push_canonical`]), not their `Debug` format — `Debug` output is
/// explicitly not a stability contract, and a derived formatter neither
/// escapes field separators nor pins its shape across refactors.
pub(crate) fn request_key(
    nlq: &str,
    keywords: &[(Keyword, KeywordMetadata)],
    overrides: &RequestOverrides,
) -> Option<String> {
    let mut key = String::with_capacity(nlq.len() + 64);
    for word in nlq.split_whitespace() {
        if !key.is_empty() {
            key.push(' ');
        }
        key.extend(word.chars().flat_map(char::to_lowercase));
    }
    key.push('\u{1}');
    for (keyword, meta) in keywords {
        if !push_canonical(&mut key, keyword) || !push_canonical(&mut key, meta) {
            return None;
        }
    }
    key.push('\u{1}');
    match overrides.lambda {
        Some(lambda) => key.push_str(&format!("l{:016x}", lambda.to_bits())),
        None => key.push('-'),
    }
    match overrides.use_log_joins {
        Some(flag) => key.push_str(if flag { "j1" } else { "j0" }),
        None => key.push('-'),
    }
    match overrides.top_k {
        Some(top_k) => key.push_str(&format!("k{top_k}")),
        None => key.push('-'),
    }
    Some(key)
}

/// One cached successful translation: the trace-free response plus the
/// search counters of the computation that produced it (re-attached to
/// traced hits so explanations still show the original work).
#[derive(Debug, Clone)]
pub(crate) struct CachedTranslation {
    pub response: TranslateResponse,
    pub search: SearchStats,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, CachedTranslation>,
    /// FIFO insertion order for eviction at the per-shard capacity bound —
    /// the same policy as the core join cache.
    order: VecDeque<String>,
}

/// The bounded, sharded translation cache of one published snapshot.
#[derive(Debug)]
pub(crate) struct TranslationCache {
    shards: Vec<Mutex<Shard>>,
    /// Entries per shard.  0 disables the cache entirely.
    shard_capacity: usize,
}

impl TranslationCache {
    pub fn new(capacity: usize) -> Self {
        TranslationCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    pub fn get(&self, key: &str) -> Option<CachedTranslation> {
        if self.shard_capacity == 0 {
            return None;
        }
        self.shard(key).lock().map.get(key).cloned()
    }

    /// Insert a translation computed against this cache's snapshot; returns
    /// the number of entries evicted at the capacity bound.
    pub fn insert(&self, key: String, value: CachedTranslation) -> u64 {
        if self.shard_capacity == 0 {
            return 0;
        }
        let mut guard = self.shard(&key).lock();
        let mut evicted = 0;
        if guard.map.insert(key.clone(), value).is_none() {
            guard.order.push_back(key);
            while guard.map.len() > self.shard_capacity {
                if let Some(oldest) = guard.order.pop_front() {
                    guard.map.remove(&oldest);
                    evicted += 1;
                } else {
                    break;
                }
            }
        }
        evicted
    }

    /// Resident entries across all shards (the metrics gauge).
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().map.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(tenant: &str) -> CachedTranslation {
        CachedTranslation {
            response: TranslateResponse {
                tenant: tenant.to_string(),
                candidates: Vec::new(),
                trace: None,
            },
            search: SearchStats::default(),
        }
    }

    #[test]
    fn keys_distinguish_overrides_but_normalize_whitespace() {
        let keywords = vec![(Keyword::new("papers"), KeywordMetadata::select())];
        let base = RequestOverrides::default();
        let a = request_key("Papers  after\t2000", &keywords, &base);
        let b = request_key("papers after 2000", &keywords, &base);
        assert_eq!(a, b, "case and whitespace are normalized away");
        let with_lambda = RequestOverrides {
            lambda: Some(0.5),
            ..Default::default()
        };
        assert_ne!(a, request_key("papers after 2000", &keywords, &with_lambda));
        let other_keywords = vec![(Keyword::new("authors"), KeywordMetadata::select())];
        assert_ne!(a, request_key("papers after 2000", &other_keywords, &base));
    }

    #[test]
    fn keys_are_canonical_collision_free_and_pinned() {
        use sqlparse::BinOp;
        let base = RequestOverrides::default();
        let select = KeywordMetadata::select;
        // Resegmentation attack: the same concatenated text split across
        // different keyword boundaries must produce different keys (the
        // Debug-format key had no length prefixes, so separator-free
        // adjacent fields could alias).
        let ab_c = vec![
            (Keyword::new("ab"), select()),
            (Keyword::new("c"), select()),
        ];
        let a_bc = vec![
            (Keyword::new("a"), select()),
            (Keyword::new("bc"), select()),
        ];
        assert_ne!(
            request_key("q", &ab_c, &base),
            request_key("q", &a_bc, &base)
        );
        // Keyword text carrying the key separator and JSON metacharacters
        // stays unambiguous behind the length prefix.
        let hostile = vec![(Keyword::new("x\u{1}21:{\"text\":\"y\"}"), select())];
        let inner = vec![(Keyword::new("x"), select()), (Keyword::new("y"), select())];
        assert_ne!(
            request_key("q", &hostile, &base),
            request_key("q", &inner, &base)
        );
        // Stability pin: the canonical layout is a compatibility contract —
        // normalized question, SOH-delimited length-prefixed JSON tuples,
        // then the override signature.  A formatter or derive change that
        // shifts this layout must fail here, not silently split the cache.
        let kws = vec![(
            Keyword::new("after 2000"),
            KeywordMetadata::filter_with_op(BinOp::Gt),
        )];
        assert_eq!(
            request_key("Papers  after\t2000", &kws, &base).unwrap(),
            "papers after 2000\u{1}\
             21:{\"text\":\"after 2000\"}\
             62:{\"context\":\"Where\",\"op\":\"Gt\",\"aggregates\":[],\"group_by\":false}\
             \u{1}---"
        );
    }

    #[test]
    fn capacity_bound_evicts_fifo_and_zero_disables() {
        let cache = TranslationCache::new(SHARDS); // one entry per shard
        let mut evicted = 0;
        for i in 0..64 {
            evicted += cache.insert(format!("q{i}"), response("t"));
        }
        assert!(evicted > 0, "overflowing a shard evicts");
        assert!(cache.entries() <= SHARDS as u64);

        let disabled = TranslationCache::new(0);
        assert_eq!(disabled.insert("q".to_string(), response("t")), 0);
        assert!(disabled.get("q").is_none());
    }
}
