//! A curated synonym lexicon used to ground the synthetic embedding model.
//!
//! The paper's Pipeline baseline uses word2vec trained on the Google-News
//! corpus, which (a) is far too large to ship and (b) would make the
//! experiments non-deterministic across environments.  We substitute a
//! lexicon of synonym groups covering the vocabulary of the three benchmark
//! domains (academic search, business reviews, movies).  Two words in the
//! same group receive a high similarity; words in *related* groups receive a
//! medium similarity.  This reproduces the crucial property the paper builds
//! on: natural-language terms such as *papers* are ambiguous between several
//! schema elements (`publication`, `journal`, `article`), and embedding
//! similarity alone cannot disambiguate them.

use std::borrow::Cow;
use std::collections::HashMap;

/// `word.to_lowercase()`, without the copy when the word is already
/// lower-case ASCII.
fn lowercased(word: &str) -> Cow<'_, str> {
    if word
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
    {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(word.to_lowercase())
    }
}

/// A synonym lexicon: maps words to synonym-group identifiers and records
/// which groups are semantically related.
#[derive(Debug, Clone, Default)]
pub struct SynonymLexicon {
    /// word -> group ids it belongs to (a word may belong to several groups).
    word_groups: HashMap<String, Vec<usize>>,
    /// Pairs of related (but not synonymous) groups.
    related: Vec<(usize, usize)>,
    /// Number of groups allocated so far.
    n_groups: usize,
}

/// Similarity contributed by the lexicon for a pair of words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LexiconRelation {
    /// Same word after lower-casing.
    Identical,
    /// Members of the same synonym group.
    Synonym,
    /// Members of related groups (e.g. *paper* vs *journal*).
    Related,
    /// No lexicon information.
    Unknown,
}

impl LexiconRelation {
    /// The similarity mass assigned to the relation, in `[0, 1]`.
    pub fn similarity(self) -> f64 {
        match self {
            LexiconRelation::Identical => 1.0,
            LexiconRelation::Synonym => 0.86,
            LexiconRelation::Related => 0.62,
            LexiconRelation::Unknown => 0.0,
        }
    }
}

impl SynonymLexicon {
    /// Create an empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in lexicon covering the vocabulary of the MAS, Yelp and
    /// IMDB benchmark domains.  The *related* pairs intentionally encode the
    /// ambiguities discussed in the paper (Examples 1 and 5).
    pub fn builtin() -> Self {
        let mut lex = Self::new();
        // -------- academic (MAS) --------
        let paper = lex.add_group(&[
            "paper",
            "papers",
            "publication",
            "publications",
            "article",
            "articles",
        ]);
        let journal = lex.add_group(&["journal", "journals", "venue", "periodical"]);
        let conference = lex.add_group(&["conference", "conferences", "meeting", "symposium"]);
        let author = lex.add_group(&[
            "author",
            "authors",
            "writer",
            "researcher",
            "researchers",
            "person",
            "people",
        ]);
        let organization = lex.add_group(&[
            "organization",
            "organizations",
            "institution",
            "university",
            "affiliation",
        ]);
        let keyword_g = lex.add_group(&["keyword", "keywords", "topic", "topics", "term"]);
        let domain_g = lex.add_group(&["domain", "domains", "area", "areas", "field", "fields"]);
        let citation = lex.add_group(&[
            "citation",
            "citations",
            "cite",
            "cites",
            "cited",
            "reference",
            "references",
        ]);
        let year_g = lex.add_group(&["year", "years", "date", "time"]);
        let title_g = lex.add_group(&["title", "titles", "name", "names", "called"]);
        let count_g = lex.add_group(&["count", "number", "total", "many"]);
        // papers are ambiguous between publication and journal (Example 1)
        lex.relate(paper, journal);
        lex.relate(paper, conference);
        lex.relate(journal, conference);
        lex.relate(keyword_g, domain_g);
        lex.relate(author, organization);
        lex.relate(citation, paper);
        lex.relate(year_g, count_g);
        lex.relate(title_g, paper);

        // -------- business reviews (Yelp) --------
        let business = lex.add_group(&[
            "business",
            "businesses",
            "place",
            "places",
            "establishment",
            "shop",
            "store",
        ]);
        let restaurant = lex.add_group(&[
            "restaurant",
            "restaurants",
            "diner",
            "eatery",
            "bar",
            "cafe",
        ]);
        let review_g = lex.add_group(&["review", "reviews", "comment", "comments", "feedback"]);
        let user_g = lex.add_group(&[
            "user",
            "users",
            "reviewer",
            "reviewers",
            "member",
            "customer",
            "customers",
        ]);
        let rating = lex.add_group(&["rating", "ratings", "stars", "star", "score"]);
        let city_g = lex.add_group(&["city", "cities", "town", "location"]);
        let state_g = lex.add_group(&["state", "states", "province"]);
        let category = lex.add_group(&["category", "categories", "type", "kind", "cuisine"]);
        let checkin = lex.add_group(&["checkin", "checkins", "visit", "visits"]);
        let tip_g = lex.add_group(&["tip", "tips", "suggestion", "advice"]);
        lex.relate(business, restaurant);
        lex.relate(title_g, restaurant);
        lex.relate(review_g, tip_g);
        lex.relate(review_g, rating);
        lex.relate(user_g, author);
        lex.relate(city_g, state_g);
        lex.relate(category, domain_g);
        lex.relate(business, checkin);

        // -------- movies (IMDB) --------
        let movie = lex.add_group(&["movie", "movies", "film", "films", "picture"]);
        let actor = lex.add_group(&["actor", "actors", "actress", "actresses", "star", "cast"]);
        let director = lex.add_group(&["director", "directors", "filmmaker"]);
        let producer = lex.add_group(&["producer", "producers"]);
        let writer_g = lex.add_group(&["writer", "writers", "screenwriter", "scriptwriter"]);
        let genre = lex.add_group(&["genre", "genres", "style"]);
        let company = lex.add_group(&["company", "companies", "studio", "studios"]);
        let series = lex.add_group(&["series", "show", "shows", "tv"]);
        let episode = lex.add_group(&["episode", "episodes"]);
        let budget = lex.add_group(&["budget", "gross", "revenue", "earnings"]);
        lex.relate(movie, series);
        lex.relate(series, episode);
        lex.relate(actor, director);
        lex.relate(actor, writer_g);
        lex.relate(director, producer);
        lex.relate(director, writer_g);
        lex.relate(genre, category);
        lex.relate(genre, keyword_g);
        lex.relate(company, organization);
        lex.relate(movie, paper);
        lex.relate(budget, rating);
        lex.relate(title_g, movie);
        lex.relate(title_g, business);
        lex
    }

    /// Add a synonym group and return its identifier.
    pub fn add_group(&mut self, words: &[&str]) -> usize {
        let id = self.n_groups;
        self.n_groups += 1;
        for w in words {
            self.word_groups
                .entry(w.to_lowercase())
                .or_default()
                .push(id);
        }
        id
    }

    /// Mark two groups as related.
    pub fn relate(&mut self, a: usize, b: usize) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if !self.related.contains(&(lo, hi)) {
            self.related.push((lo, hi));
        }
    }

    /// Number of synonym groups in the lexicon.
    pub fn group_count(&self) -> usize {
        self.n_groups
    }

    /// Number of distinct words covered by the lexicon.
    pub fn word_count(&self) -> usize {
        self.word_groups.len()
    }

    /// True when the lexicon has an entry for the word.
    pub fn contains(&self, word: &str) -> bool {
        self.word_groups.contains_key(&word.to_lowercase())
    }

    /// Classify the relation between two words.
    pub fn relation(&self, a: &str, b: &str) -> LexiconRelation {
        let a = lowercased(a);
        let b = lowercased(b);
        if a == b {
            return LexiconRelation::Identical;
        }
        let (Some(ga), Some(gb)) = (
            self.word_groups.get(a.as_ref()),
            self.word_groups.get(b.as_ref()),
        ) else {
            return LexiconRelation::Unknown;
        };
        for x in ga {
            if gb.contains(x) {
                return LexiconRelation::Synonym;
            }
        }
        for &x in ga {
            for &y in gb {
                let key = if x <= y { (x, y) } else { (y, x) };
                if self.related.contains(&key) {
                    return LexiconRelation::Related;
                }
            }
        }
        LexiconRelation::Unknown
    }

    /// Lexicon-derived similarity between two words in `[0, 1]`.
    pub fn word_similarity(&self, a: &str, b: &str) -> f64 {
        self.relation(a, b).similarity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_contains_domain_vocabulary() {
        let lex = SynonymLexicon::builtin();
        assert!(lex.contains("papers"));
        assert!(lex.contains("restaurant"));
        assert!(lex.contains("movie"));
        assert!(lex.word_count() > 100);
        assert!(lex.group_count() > 25);
    }

    #[test]
    fn synonyms_score_higher_than_related() {
        let lex = SynonymLexicon::builtin();
        let syn = lex.word_similarity("papers", "publication");
        let rel = lex.word_similarity("papers", "journal");
        let unk = lex.word_similarity("papers", "restaurant");
        assert!(syn > rel, "synonym {syn} should beat related {rel}");
        assert!(rel > unk, "related {rel} should beat unknown {unk}");
        assert_eq!(unk, 0.0);
    }

    #[test]
    fn paper_journal_ambiguity_is_encoded() {
        // The paper's Example 1: "papers" is close to both publication and
        // journal, with journal close enough to confuse a similarity-only
        // mapper.
        let lex = SynonymLexicon::builtin();
        assert!(lex.word_similarity("papers", "journal") >= 0.6);
        assert!(lex.word_similarity("papers", "publication") >= 0.85);
    }

    #[test]
    fn identical_words_have_similarity_one() {
        let lex = SynonymLexicon::builtin();
        assert_eq!(lex.word_similarity("domain", "Domain"), 1.0);
        // even for out-of-vocabulary words
        assert_eq!(lex.word_similarity("zzz", "zzz"), 1.0);
    }

    #[test]
    fn relation_is_symmetric() {
        let lex = SynonymLexicon::builtin();
        for (a, b) in [
            ("papers", "journal"),
            ("actor", "director"),
            ("city", "state"),
        ] {
            assert_eq!(lex.relation(a, b), lex.relation(b, a));
        }
    }

    #[test]
    fn custom_lexicon_groups() {
        let mut lex = SynonymLexicon::new();
        let g1 = lex.add_group(&["cat", "feline"]);
        let g2 = lex.add_group(&["dog", "canine"]);
        lex.relate(g1, g2);
        assert_eq!(lex.relation("cat", "feline"), LexiconRelation::Synonym);
        assert_eq!(lex.relation("cat", "dog"), LexiconRelation::Related);
        assert_eq!(lex.relation("cat", "fish"), LexiconRelation::Unknown);
    }
}
