//! The similarity interface consumed by the keyword mapper (Algorithm 3).
//!
//! Templar is agnostic to the underlying word-similarity model (the paper
//! mentions word2vec and GloVe interchangeably); this module defines the
//! [`SimilarityModel`] trait so that the core crate can be tested against
//! mock models, and provides [`TextSimilarity`], the production
//! implementation backed by [`WordModel`].

use crate::embedding::WordModel;

/// A word/phrase similarity oracle producing scores in `[0, 1]`.
pub trait SimilarityModel: Send + Sync {
    /// Similarity between a natural-language phrase and a database-derived
    /// string (schema element name or text value), in `[0, 1]`.
    fn similarity(&self, phrase: &str, target: &str) -> f64;
}

/// Production similarity model: phrase-level similarity over the
/// deterministic embedding model, with a small bonus for exact and
/// stem-exact matches so that literal value references
/// (e.g. `"TKDE"` vs the stored value `TKDE`) reach the exact-match pruning
/// threshold of Algorithm 3.
#[derive(Debug, Clone, Default)]
pub struct TextSimilarity {
    model: WordModel,
}

impl TextSimilarity {
    /// Build the default model (built-in lexicon).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit word model.
    pub fn with_model(model: WordModel) -> Self {
        TextSimilarity { model }
    }

    /// Access the underlying word model.
    pub fn model(&self) -> &WordModel {
        &self.model
    }
}

impl SimilarityModel for TextSimilarity {
    fn similarity(&self, phrase: &str, target: &str) -> f64 {
        if phrase.is_empty() || target.is_empty() {
            return 0.0;
        }
        if phrase.eq_ignore_ascii_case(target) {
            return 1.0;
        }
        self.model.phrase_similarity(phrase, target)
    }
}

/// A fixed similarity model for tests: returns the value stored for the pair
/// (in either order) or a default.
#[derive(Debug, Clone, Default)]
pub struct FixedSimilarity {
    pairs: Vec<(String, String, f64)>,
    default: f64,
}

impl FixedSimilarity {
    /// Create an empty fixed model with the given default score.
    pub fn with_default(default: f64) -> Self {
        FixedSimilarity {
            pairs: Vec::new(),
            default,
        }
    }

    /// Register a similarity for a pair of strings (symmetric).
    pub fn set(&mut self, a: &str, b: &str, sim: f64) -> &mut Self {
        self.pairs.push((a.to_lowercase(), b.to_lowercase(), sim));
        self
    }
}

impl SimilarityModel for FixedSimilarity {
    fn similarity(&self, phrase: &str, target: &str) -> f64 {
        let p = phrase.to_lowercase();
        let t = target.to_lowercase();
        if p == t {
            return 1.0;
        }
        for (a, b, s) in &self.pairs {
            if (*a == p && *b == t) || (*a == t && *b == p) {
                return *s;
            }
        }
        self.default
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_scores_one() {
        let sim = TextSimilarity::new();
        assert_eq!(sim.similarity("TKDE", "tkde"), 1.0);
        assert_eq!(sim.similarity("Databases", "Databases"), 1.0);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let sim = TextSimilarity::new();
        assert_eq!(sim.similarity("", "journal"), 0.0);
        assert_eq!(sim.similarity("papers", ""), 0.0);
    }

    #[test]
    fn schema_element_similarity_is_sensible() {
        let sim = TextSimilarity::new();
        let good = sim.similarity("papers", "publication");
        let bad = sim.similarity("papers", "organization");
        assert!(good > bad, "{good} vs {bad}");
    }

    #[test]
    fn fixed_similarity_lookup() {
        let mut fixed = FixedSimilarity::with_default(0.1);
        fixed.set("papers", "publication", 0.9);
        assert_eq!(fixed.similarity("Papers", "publication"), 0.9);
        assert_eq!(fixed.similarity("publication", "papers"), 0.9);
        assert_eq!(fixed.similarity("papers", "city"), 0.1);
        assert_eq!(fixed.similarity("papers", "papers"), 1.0);
    }
}
