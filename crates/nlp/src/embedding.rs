//! A deterministic word-embedding model.
//!
//! Substitutes for word2vec / GloVe in the Pipeline baseline and in
//! Templar's `sim_text` (Algorithm 3).  Vectors are built from hashed
//! character n-grams so that morphologically similar words (e.g. `review`
//! and `reviews`) land close together, and the overall pairwise similarity
//! is blended with the [`SynonymLexicon`]
//! so that domain synonyms (e.g. `papers` / `publication`) score highly even
//! when they share no characters.
//!
//! The model exposes the same interface the paper's systems need: a
//! `similarity(a, b)` in `[0, 1]` for word pairs and phrase pairs (Pipeline
//! normalises word2vec's `[-1, 1]` cosine into `[0, 1]`, and so do we).

use crate::lexicon::SynonymLexicon;
use crate::stem::porter_stem;
use crate::tokenize::split_identifier;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Dimensionality of the synthetic embedding space.
pub const EMBEDDING_DIM: usize = 64;

/// A dense vector representing a word or phrase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseVector {
    values: [f64; EMBEDDING_DIM],
}

impl Default for PhraseVector {
    fn default() -> Self {
        PhraseVector {
            values: [0.0; EMBEDDING_DIM],
        }
    }
}

impl PhraseVector {
    /// The zero vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise addition.
    pub fn add_assign(&mut self, other: &PhraseVector) {
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }

    /// Scale all components by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in self.values.iter_mut() {
            *v *= s;
        }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Cosine similarity in `[-1, 1]`; zero if either vector is zero.
    pub fn cosine(&self, other: &PhraseVector) -> f64 {
        let dot: f64 = self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| a * b)
            .sum();
        let denom = self.norm() * other.norm();
        if denom <= f64::EPSILON {
            0.0
        } else {
            (dot / denom).clamp(-1.0, 1.0)
        }
    }

    /// Access the raw components (mainly for tests).
    pub fn components(&self) -> &[f64; EMBEDDING_DIM] {
        &self.values
    }
}

/// FNV-1a hash, used to deterministically map character n-grams to
/// embedding dimensions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Upper bound on memoized word vectors.  Schema vocabularies and common
/// keyword words fit comfortably; an adversarial stream of unique words
/// cannot grow the cache past this.
const VECTOR_CACHE_CAP: usize = 4096;

/// Upper bound on memoized *phrase* vectors.  Phrases (multi-word keywords,
/// split identifiers) are more varied than single words, but a serving
/// deployment still re-embeds the same schema-element names and recurring
/// keyword phrases on every request.
const PHRASE_CACHE_CAP: usize = 2048;

/// The deterministic word-embedding model.
///
/// Construction is cheap; the model owns a [`SynonymLexicon`] that supplies
/// domain knowledge (the role the Google-News corpus plays in the paper).
///
/// Word vectors are deterministic functions of the word, so the model
/// memoizes them (bounded, thread-safe): under serving traffic the same
/// schema-element words are embedded for every candidate of every request,
/// and the memo turns those repeats into a map hit plus a 64-float copy.
#[derive(Debug)]
pub struct WordModel {
    lexicon: SynonymLexicon,
    /// Blend factor between lexicon similarity and character-level cosine.
    /// `1.0` means lexicon-only, `0.0` character-only.
    lexicon_weight: f64,
    /// Bounded word → vector memo.  A lock-poisoning panic elsewhere only
    /// disables the memo (lookups fall through to recomputation).
    vector_cache: RwLock<HashMap<String, PhraseVector>>,
    /// Bounded phrase → vector memo (same policy as the word memo; a
    /// phrase vector is a pure function of the phrase text).
    phrase_cache: RwLock<HashMap<String, PhraseVector>>,
    /// Word-memo hit/miss counters, observable for tuning and tests.
    word_hits: AtomicU64,
    word_misses: AtomicU64,
    /// Phrase-memo hit/miss counters, observable for tuning and tests.
    phrase_hits: AtomicU64,
    phrase_misses: AtomicU64,
}

impl Default for WordModel {
    fn default() -> Self {
        Self::with_lexicon(SynonymLexicon::builtin())
    }
}

impl Clone for WordModel {
    /// A clone starts cold: empty memos and zero counters, like a freshly
    /// built model.
    fn clone(&self) -> Self {
        Self::cold(self.lexicon.clone(), self.lexicon_weight)
    }
}

impl WordModel {
    /// Build the default model with the built-in benchmark lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a model around a custom lexicon.
    pub fn with_lexicon(lexicon: SynonymLexicon) -> Self {
        Self::cold(lexicon, 0.75)
    }

    /// Build a model that ignores the lexicon entirely (character n-grams
    /// only); useful for ablations and tests.
    pub fn without_lexicon() -> Self {
        Self::cold(SynonymLexicon::new(), 0.0)
    }

    fn cold(lexicon: SynonymLexicon, lexicon_weight: f64) -> Self {
        WordModel {
            lexicon,
            lexicon_weight,
            vector_cache: RwLock::new(HashMap::new()),
            phrase_cache: RwLock::new(HashMap::new()),
            word_hits: AtomicU64::new(0),
            word_misses: AtomicU64::new(0),
            phrase_hits: AtomicU64::new(0),
            phrase_misses: AtomicU64::new(0),
        }
    }

    /// Access the underlying lexicon.
    pub fn lexicon(&self) -> &SynonymLexicon {
        &self.lexicon
    }

    /// Embed a single word into the synthetic vector space using hashed
    /// character n-grams (n = 2..=4) of the *stemmed* word plus the whole
    /// stem, mirroring fastText-style subword embeddings.  Memoized: the
    /// embedding is a pure function of the word.
    pub fn word_vector(&self, word: &str) -> PhraseVector {
        if let Ok(cache) = self.vector_cache.read() {
            if let Some(hit) = cache.get(word) {
                self.word_hits.fetch_add(1, Ordering::Relaxed);
                return hit.clone();
            }
        }
        self.word_misses.fetch_add(1, Ordering::Relaxed);
        let vector = self.compute_word_vector(word);
        if let Ok(mut cache) = self.vector_cache.write() {
            if cache.len() < VECTOR_CACHE_CAP {
                cache.insert(word.to_string(), vector.clone());
            }
        }
        vector
    }

    fn compute_word_vector(&self, word: &str) -> PhraseVector {
        let stem = porter_stem(&word.to_lowercase());
        let padded = format!("^{stem}$");
        let bytes = padded.as_bytes();
        let mut vec = PhraseVector::zero();
        let mut push = |gram: &[u8]| {
            let h = fnv1a(gram);
            let dim = (h % EMBEDDING_DIM as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            vec.values[dim] += sign;
        };
        for n in 2..=4usize {
            if bytes.len() < n {
                continue;
            }
            for start in 0..=(bytes.len() - n) {
                push(&bytes[start..start + n]);
            }
        }
        push(bytes);
        let norm = vec.norm();
        if norm > f64::EPSILON {
            vec.scale(1.0 / norm);
        }
        vec
    }

    /// Embed a phrase (or identifier) by averaging its word vectors.  SQL
    /// identifiers are split on underscores / camel-case first.
    ///
    /// Memoized at the phrase level (bounded, thread-safe): the splitting,
    /// per-word lookups and re-normalisation used to run on every call even
    /// though every word vector was already cached.  Hit/miss counts are
    /// observable via [`WordModel::phrase_cache_stats`].
    pub fn phrase_vector(&self, phrase: &str) -> PhraseVector {
        if let Ok(cache) = self.phrase_cache.read() {
            if let Some(hit) = cache.get(phrase) {
                self.phrase_hits.fetch_add(1, Ordering::Relaxed);
                return hit.clone();
            }
        }
        self.phrase_misses.fetch_add(1, Ordering::Relaxed);
        let vector = self.compute_phrase_vector(phrase);
        if let Ok(mut cache) = self.phrase_cache.write() {
            if cache.len() < PHRASE_CACHE_CAP {
                cache.insert(phrase.to_string(), vector.clone());
            }
        }
        vector
    }

    fn compute_phrase_vector(&self, phrase: &str) -> PhraseVector {
        let words = split_identifier(phrase);
        if words.is_empty() {
            return PhraseVector::zero();
        }
        let mut acc = PhraseVector::zero();
        for w in &words {
            acc.add_assign(&self.word_vector(w));
        }
        acc.scale(1.0 / words.len() as f64);
        acc
    }

    /// Word-memo `(hits, misses)` since this instance was constructed.
    pub fn word_cache_stats(&self) -> (u64, u64) {
        (
            self.word_hits.load(Ordering::Relaxed),
            self.word_misses.load(Ordering::Relaxed),
        )
    }

    /// Phrase-memo `(hits, misses)` since this instance was constructed.
    pub fn phrase_cache_stats(&self) -> (u64, u64) {
        (
            self.phrase_hits.load(Ordering::Relaxed),
            self.phrase_misses.load(Ordering::Relaxed),
        )
    }

    /// Character-level similarity between two words, normalised to `[0, 1]`.
    fn char_similarity(&self, a: &str, b: &str) -> f64 {
        let cos = self.word_vector(a).cosine(&self.word_vector(b));
        (cos + 1.0) / 2.0
    }

    /// Similarity between two single words in `[0, 1]`.
    ///
    /// The lexicon dominates when it knows both words; otherwise the hashed
    /// n-gram cosine provides a graceful fallback (so `reviewer` vs `review`
    /// still scores well).
    pub fn word_similarity(&self, a: &str, b: &str) -> f64 {
        let a_l = a.to_lowercase();
        let b_l = b.to_lowercase();
        if a_l == b_l || porter_stem(&a_l) == porter_stem(&b_l) {
            return 1.0;
        }
        let lex = self.lexicon.word_similarity(&a_l, &b_l);
        let chars = self.char_similarity(&a_l, &b_l);
        if lex > 0.0 {
            (self.lexicon_weight * lex + (1.0 - self.lexicon_weight) * chars).clamp(0.0, 1.0)
        } else {
            // Without lexicon evidence, damp the character similarity so that
            // unrelated words do not look spuriously similar.
            (chars * 0.6).clamp(0.0, 1.0)
        }
    }

    /// Similarity between two phrases in `[0, 1]`.
    ///
    /// Implemented as a greedy best-match alignment: each word of the shorter
    /// phrase is matched to its most similar word in the other phrase and the
    /// scores are averaged.  This mirrors how the Pipeline baseline compares
    /// a keyword phrase against a (possibly multi-word) schema element name.
    pub fn phrase_similarity(&self, a: &str, b: &str) -> f64 {
        let wa = split_identifier(a);
        let wb = split_identifier(b);
        if wa.is_empty() || wb.is_empty() {
            return 0.0;
        }
        let (short, long) = if wa.len() <= wb.len() {
            (&wa, &wb)
        } else {
            (&wb, &wa)
        };
        let mut total = 0.0;
        for s in short.iter() {
            let best = long
                .iter()
                .map(|l| self.word_similarity(s, l))
                .fold(0.0f64, f64::max);
            total += best;
        }
        let coverage_penalty = short.len() as f64 / long.len() as f64;
        let mean = total / short.len() as f64;
        // Penalise length mismatch mildly: "papers" vs "publication" should
        // not be punished, but a one-word keyword matching a five-word value
        // should score lower than an exact value match.
        (mean * (0.75 + 0.25 * coverage_penalty)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_words_score_one() {
        let m = WordModel::new();
        assert_eq!(m.word_similarity("papers", "Papers"), 1.0);
        assert_eq!(m.word_similarity("review", "reviews"), 1.0); // same stem
    }

    #[test]
    fn synonym_beats_unrelated() {
        let m = WordModel::new();
        let syn = m.word_similarity("papers", "publication");
        let unrelated = m.word_similarity("papers", "city");
        assert!(syn > 0.7, "synonym similarity too low: {syn}");
        assert!(
            unrelated < 0.5,
            "unrelated similarity too high: {unrelated}"
        );
        assert!(syn > unrelated);
    }

    #[test]
    fn ambiguity_between_publication_and_journal() {
        // The property that drives the paper's Example 1: both candidates are
        // plausibly similar to "papers"; the (wrong) journal mapping is close
        // enough that a similarity-only mapper can pick it.
        let m = WordModel::new();
        let pub_sim = m.word_similarity("papers", "publication");
        let journal_sim = m.word_similarity("papers", "journal");
        assert!(journal_sim > 0.4);
        assert!(pub_sim > journal_sim);
        assert!(pub_sim - journal_sim < 0.45);
    }

    #[test]
    fn vectors_are_deterministic() {
        let m = WordModel::new();
        let v1 = m.word_vector("restaurant");
        let v2 = m.word_vector("restaurant");
        assert_eq!(v1, v2);
    }

    #[test]
    fn vectors_are_unit_norm() {
        let m = WordModel::new();
        for w in ["restaurant", "publication", "director", "x"] {
            let n = m.word_vector(w).norm();
            assert!((n - 1.0).abs() < 1e-9 || n == 0.0, "word {w} norm {n}");
        }
    }

    #[test]
    fn phrase_similarity_handles_identifiers() {
        let m = WordModel::new();
        let sim = m.phrase_similarity("restaurant businesses", "business");
        assert!(sim > 0.6, "got {sim}");
        let sim2 = m.phrase_similarity("papers", "publication_keyword");
        assert!(sim2 > 0.4, "got {sim2}");
    }

    #[test]
    fn phrase_similarity_is_symmetric() {
        let m = WordModel::new();
        for (a, b) in [
            ("restaurant businesses", "business"),
            ("papers", "journal name"),
            ("movie Saving Private Ryan", "title"),
        ] {
            let ab = m.phrase_similarity(a, b);
            let ba = m.phrase_similarity(b, a);
            assert!((ab - ba).abs() < 1e-12, "{a} vs {b}: {ab} != {ba}");
        }
    }

    #[test]
    fn similarity_in_unit_interval() {
        let m = WordModel::new();
        for (a, b) in [
            ("papers", "journal"),
            ("after 2000", "year"),
            ("", "publication"),
            ("zzzz", "qqqq"),
        ] {
            let s = m.phrase_similarity(a, b);
            assert!((0.0..=1.0).contains(&s), "{a} vs {b} -> {s}");
        }
    }

    #[test]
    fn phrase_vectors_are_memoized_with_observable_hit_rate() {
        let m = WordModel::new();
        assert_eq!(m.phrase_cache_stats(), (0, 0));
        let first = m.phrase_vector("restaurant businesses");
        assert_eq!(m.phrase_cache_stats(), (0, 1));
        let second = m.phrase_vector("restaurant businesses");
        assert_eq!(m.phrase_cache_stats(), (1, 1));
        assert_eq!(first, second, "memo must return the identical vector");
        // The memo is keyed by the exact phrase text; a different phrase is
        // a fresh miss and an uncached computation agrees with the memoized
        // path's output.
        let other = m.phrase_vector("business");
        assert_eq!(m.phrase_cache_stats(), (1, 2));
        assert_eq!(other, m.compute_phrase_vector("business"));
        // Cloned models start cold and report their own traffic.
        let cloned = m.clone();
        assert_eq!(cloned.phrase_cache_stats(), (0, 0));
        assert_eq!(cloned.phrase_vector("restaurant businesses"), first);
        assert_eq!(cloned.phrase_cache_stats(), (0, 1), "clone starts cold");
    }

    #[test]
    fn word_vectors_are_memoized_with_observable_hit_rate() {
        let m = WordModel::new();
        assert_eq!(m.word_cache_stats(), (0, 0));
        let first = m.word_vector("restaurant");
        assert_eq!(m.word_cache_stats(), (0, 1));
        let second = m.word_vector("restaurant");
        assert_eq!(m.word_cache_stats(), (1, 1));
        assert_eq!(first, second, "memo must return the identical vector");
        // Cloned models start cold and report their own traffic.
        let cloned = m.clone();
        assert_eq!(cloned.word_cache_stats(), (0, 0));
        assert_eq!(cloned.word_vector("restaurant"), first);
        assert_eq!(cloned.word_cache_stats(), (0, 1), "clone starts cold");
    }

    #[test]
    fn model_without_lexicon_still_matches_morphology() {
        let m = WordModel::without_lexicon();
        let close = m.word_similarity("directing", "director");
        let far = m.word_similarity("directing", "cuisine");
        assert!(close > far);
    }

    #[test]
    fn empty_phrase_has_zero_similarity() {
        let m = WordModel::new();
        assert_eq!(m.phrase_similarity("", "publication"), 0.0);
        assert_eq!(m.phrase_similarity("papers", ""), 0.0);
    }
}
