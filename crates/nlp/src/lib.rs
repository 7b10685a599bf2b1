//! Natural-language processing substrate for the Templar reproduction.
//!
//! The paper relies on three pieces of off-the-shelf NLP technology:
//!
//! 1. a **tokenizer** that splits natural-language keywords and SQL
//!    identifiers into word tokens,
//! 2. the **Porter stemmer** used to build the boolean full-text search
//!    queries of Algorithm 2 (`findTextAttrs`), and
//! 3. a **word-embedding similarity model** (word2vec / GloVe) producing a
//!    `[0, 1]` similarity between a keyword phrase and a database element.
//!
//! None of these are available as mature offline Rust libraries, so this
//! crate implements all three from scratch.  The embedding model is a
//! *deterministic substitute* for word2vec: vectors are derived from hashed
//! character n-grams and blended with a curated synonym lexicon so that the
//! ambiguity structure that motivates the paper (e.g. *papers* being close to
//! both `publication` and `journal`) is preserved while keeping every
//! experiment reproducible.  See `DESIGN.md` for the substitution argument.

pub mod embedding;
pub mod lexicon;
pub mod similarity;
pub mod stem;
pub mod tokenize;

pub use embedding::{
    PhraseScorer, PhraseVector, PreparedWord, Vocabulary, WordModel, EMBEDDING_DIM,
};
pub use lexicon::SynonymLexicon;
pub use similarity::{FixedSimilarity, SimilarityModel, TextSimilarity};
pub use stem::porter_stem;
pub use tokenize::{
    contains_number, extract_numbers, split_identifier, tokenize, tokenize_lower, Token, TokenKind,
};
