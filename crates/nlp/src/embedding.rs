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
use crate::similarity::SimilarityModel;
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

    /// Cosine similarity in `[-1, 1]` given both vectors' norms; zero if
    /// either vector is zero.
    fn cosine(&self, other: &PhraseVector, norm: f64, other_norm: f64) -> f64 {
        let dot: f64 = self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| a * b)
            .sum();
        let denom = norm * other_norm;
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

/// The embedding of [`WordModel::word_vector`], unmemoized; unit norm (or
/// zero).
fn embed(word: &str) -> PhraseVector {
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

/// A word prepared for [`WordModel::prepared_similarity`]: lower-cased,
/// Porter-stemmed and embedded, with its vector's norm.  Every field is a
/// pure function of the word, so a prepared word can be built once (for a
/// schema word, once per database) and scored against any number of others.
#[derive(Debug)]
pub struct PreparedWord {
    lower: String,
    stem: String,
    vector: PhraseVector,
    norm: f64,
}

impl PreparedWord {
    /// Prepare a word.
    pub fn new(word: &str) -> Self {
        let lower = word.to_lowercase();
        let vector = embed(&lower);
        Self::with_vector(lower, vector)
    }

    fn with_vector(lower: String, vector: PhraseVector) -> Self {
        let stem = porter_stem(&lower);
        let norm = vector.norm();
        PreparedWord {
            lower,
            stem,
            vector,
            norm,
        }
    }

    /// The lower-cased word.
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// The Porter stem of the lower-cased word.
    pub fn stem(&self) -> &str {
        &self.stem
    }
}

/// Greedy best-match alignment of two phrases of `a` and `b` words, given
/// `sim(i, j)`, the similarity of word `i` of the first and word `j` of the
/// second: each word of the shorter phrase is matched to its most similar
/// word in the other and the scores are averaged, with a mild penalty for a
/// length mismatch.  0 when either phrase has no word.
fn align(a: usize, b: usize, sim: impl Fn(usize, usize) -> f64) -> f64 {
    if a == 0 || b == 0 {
        return 0.0;
    }
    let (short, long) = (a.min(b), a.max(b));
    let mut total = 0.0;
    for s in 0..short {
        let best = (0..long)
            .map(|l| if a <= b { sim(s, l) } else { sim(l, s) })
            .fold(0.0f64, f64::max);
        total += best;
    }
    let coverage_penalty = short as f64 / long as f64;
    let mean = total / short as f64;
    // Penalise length mismatch mildly: "papers" vs "publication" should
    // not be punished, but a one-word keyword matching a five-word value
    // should score lower than an exact value match.
    (mean * (0.75 + 0.25 * coverage_penalty)).clamp(0.0, 1.0)
}

/// Upper bound on memoized word vectors.  Keyword words and the words of
/// stored text values fit comfortably; an adversarial stream of unique words
/// cannot grow the cache past this.
const VECTOR_CACHE_CAP: usize = 4096;

/// The deterministic word-embedding model.
///
/// Construction is cheap; the model owns a [`SynonymLexicon`] that supplies
/// domain knowledge (the role the Google-News corpus plays in the paper).
///
/// Word vectors are deterministic functions of the word, so the model
/// memoizes them (bounded, thread-safe): under serving traffic the same
/// keyword and value words recur across requests, and the memo turns those
/// repeats into a map hit plus a 64-float copy.  Schema words do not pass
/// through it: they are prepared once per database (see [`Vocabulary`]).
#[derive(Debug)]
pub struct WordModel {
    lexicon: SynonymLexicon,
    /// Blend factor between lexicon similarity and character-level cosine.
    /// `1.0` means lexicon-only, `0.0` character-only.
    lexicon_weight: f64,
    /// Bounded word → vector memo.  A lock-poisoning panic elsewhere only
    /// disables the memo (lookups fall through to recomputation).
    vector_cache: RwLock<HashMap<String, PhraseVector>>,
    /// Word-memo hit/miss counters, observable for tuning and tests.
    word_hits: AtomicU64,
    word_misses: AtomicU64,
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
            word_hits: AtomicU64::new(0),
            word_misses: AtomicU64::new(0),
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
        let vector = embed(word);
        if let Ok(mut cache) = self.vector_cache.write() {
            if cache.len() < VECTOR_CACHE_CAP {
                cache.insert(word.to_string(), vector.clone());
            }
        }
        vector
    }

    /// Word-memo `(hits, misses)` since this instance was constructed.
    pub fn word_cache_stats(&self) -> (u64, u64) {
        (
            self.word_hits.load(Ordering::Relaxed),
            self.word_misses.load(Ordering::Relaxed),
        )
    }

    /// [`PreparedWord::new`] with the vector read through the word memo.
    fn prepare(&self, word: &str) -> PreparedWord {
        let lower = word.to_lowercase();
        let vector = self.word_vector(&lower);
        PreparedWord::with_vector(lower, vector)
    }

    /// Similarity between two prepared words in `[0, 1]`: the one word-pair
    /// kernel behind [`WordModel::word_similarity`],
    /// [`WordModel::phrase_similarity`] and the vocabulary path of
    /// [`PhraseScorer`].  It is symmetric bit for bit.
    ///
    /// The lexicon dominates when it knows both words; otherwise the hashed
    /// n-gram cosine provides a graceful fallback (so `reviewer` vs `review`
    /// still scores well).
    pub fn prepared_similarity(&self, a: &PreparedWord, b: &PreparedWord) -> f64 {
        if a.lower == b.lower || a.stem == b.stem {
            return 1.0;
        }
        let lex = self.lexicon.word_similarity(&a.lower, &b.lower);
        let cos = a.vector.cosine(&b.vector, a.norm, b.norm);
        let chars = (cos + 1.0) / 2.0;
        if lex > 0.0 {
            (self.lexicon_weight * lex + (1.0 - self.lexicon_weight) * chars).clamp(0.0, 1.0)
        } else {
            // Without lexicon evidence, damp the character similarity so that
            // unrelated words do not look spuriously similar.
            (chars * 0.6).clamp(0.0, 1.0)
        }
    }

    /// Similarity between two single words in `[0, 1]`.
    pub fn word_similarity(&self, a: &str, b: &str) -> f64 {
        self.prepared_similarity(&self.prepare(a), &self.prepare(b))
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
        let pa: Vec<PreparedWord> = wa.iter().map(|w| self.prepare(w)).collect();
        let pb: Vec<PreparedWord> = wb.iter().map(|w| self.prepare(w)).collect();
        align(pa.len(), pb.len(), |i, j| {
            self.prepared_similarity(&pa[i], &pb[j])
        })
    }
}

/// Names (SQL identifiers) split into ids of distinct prepared words.  A
/// database builds one over its relation and attribute names when it is
/// created; [`PhraseScorer`] then scores a phrase against its names without
/// splitting, stemming or embedding them again.
#[derive(Debug, Default)]
pub struct Vocabulary {
    words: Vec<PreparedWord>,
    names: Vec<(String, Vec<usize>)>,
    word_ids: HashMap<String, usize>,
    name_ids: HashMap<String, usize>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a name (names are deduplicated by their exact text) and return
    /// its id.
    pub fn insert(&mut self, name: &str) -> usize {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let words = split_identifier(name)
            .into_iter()
            .map(|word| match self.word_ids.get(&word) {
                Some(&id) => id,
                None => {
                    self.words.push(PreparedWord::new(&word));
                    self.word_ids.insert(word, self.words.len() - 1);
                    self.words.len() - 1
                }
            })
            .collect();
        self.names.push((name.to_string(), words));
        self.name_ids.insert(name.to_string(), self.names.len() - 1);
        self.names.len() - 1
    }

    /// The text of a name.
    pub fn name(&self, id: usize) -> &str {
        &self.names[id].0
    }

    /// Number of distinct names.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// The distinct words of every name, in first-seen order.
    pub fn words(&self) -> &[PreparedWord] {
        &self.words
    }
}

/// One phrase scored against the names of a [`Vocabulary`].  The phrase's
/// words are prepared once, on first use, through the model's word memo;
/// each (phrase word, vocabulary word) pair and each name is scored at most
/// once.
#[derive(Debug)]
pub struct PhraseScorer<'a> {
    phrase: &'a str,
    vocabulary: &'a Vocabulary,
    words: Option<Vec<PreparedWord>>,
    /// `words.len() × vocabulary.words.len()` kernel results; NaN = not yet
    /// scored.
    pairs: Vec<f64>,
    /// Per-name similarity; NaN = not yet scored.
    names: Vec<f64>,
}

impl<'a> PhraseScorer<'a> {
    /// Score `phrase` against `vocabulary`'s names.
    pub fn new(phrase: &'a str, vocabulary: &'a Vocabulary) -> Self {
        PhraseScorer {
            phrase,
            vocabulary,
            words: None,
            pairs: Vec::new(),
            names: vec![f64::NAN; vocabulary.names.len()],
        }
    }

    /// The phrase being scored.
    pub fn phrase(&self) -> &'a str {
        self.phrase
    }

    /// The vocabulary whose names are scored.
    pub fn vocabulary(&self) -> &'a Vocabulary {
        self.vocabulary
    }

    /// `model`'s similarity between the phrase and the vocabulary name `name`
    /// (see [`SimilarityModel::name_similarity`]), computed once per name.
    pub fn similarity(&mut self, model: &dyn SimilarityModel, name: usize) -> f64 {
        let known = self.names[name];
        if !known.is_nan() {
            return known;
        }
        let sim = model.name_similarity(self, name);
        self.names[name] = sim;
        sim
    }

    /// [`WordModel::phrase_similarity`] between the phrase and the name
    /// `name`, from the prepared words.
    pub(crate) fn phrase_similarity(&mut self, model: &WordModel, name: usize) -> f64 {
        let Self {
            phrase,
            vocabulary,
            words,
            pairs,
            ..
        } = self;
        let width = vocabulary.words.len();
        let words = words.get_or_insert_with(|| {
            let words: Vec<PreparedWord> = split_identifier(phrase)
                .iter()
                .map(|w| model.prepare(w))
                .collect();
            *pairs = vec![f64::NAN; words.len() * width];
            words
        });
        let name_words = &vocabulary.names[name].1;
        for (i, word) in words.iter().enumerate() {
            for &j in name_words {
                let slot = &mut pairs[i * width + j];
                if slot.is_nan() {
                    *slot = model.prepared_similarity(word, &vocabulary.words[j]);
                }
            }
        }
        align(words.len(), name_words.len(), |i, j| {
            pairs[i * width + name_words[j]]
        })
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
