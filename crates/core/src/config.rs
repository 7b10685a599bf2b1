//! Templar configuration parameters.

use serde::{Deserialize, Serialize};

/// The obscurity level applied to query fragments (Section IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Obscurity {
    /// Retain all values: `p.year > 2000`.
    Full,
    /// Replace literal constants with a placeholder: `p.year > ?val`.
    NoConst,
    /// Also obscure the comparison operator: `p.year ?op ?val`.
    NoConstOp,
}

impl Default for Obscurity {
    /// The paper's best-performing level, `NoConstOp`.
    fn default() -> Self {
        Obscurity::NoConstOp
    }
}

impl Obscurity {
    /// All levels, in increasing order of obscurity.
    pub const ALL: [Obscurity; 3] = [Obscurity::Full, Obscurity::NoConst, Obscurity::NoConstOp];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Obscurity::Full => "Full",
            Obscurity::NoConst => "NoConst",
            Obscurity::NoConstOp => "NoConstOp",
        }
    }
}

/// Tunable parameters of Templar (Section VII-D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplarConfig {
    /// `κ`: number of top candidate keyword mappings retained per keyword
    /// before configurations are generated (paper default: 5).
    pub kappa: usize,
    /// `λ`: weight of the word-similarity score versus the log-driven score
    /// in the final configuration score (paper default: 0.8).
    pub lambda: f64,
    /// The fragment obscurity level used for the QFG (paper default, best
    /// performing: `NoConstOp`).
    pub obscurity: Obscurity,
    /// Whether join path inference uses log-driven edge weights
    /// (`LogJoin` in Table IV).  When false, all edges weigh 1 and the
    /// minimum-length join path wins.
    pub use_log_joins: bool,
    /// `ε`: the small value used both for the exact-match pruning threshold
    /// (`σ ≥ 1 − ε`) and as the score of numeric candidates whose predicate
    /// selects no rows.
    pub epsilon: f64,
    /// Maximum number of configurations returned by `MAPKEYWORDS`.
    pub max_configurations: usize,
    /// Number of alternative join paths to enumerate per relation bag.
    pub join_candidates: usize,
    /// Maximum number of join inferences kept in the facade's cache.  The
    /// cache is keyed by relation-bag signature; under serving traffic the
    /// set of distinct bags is unbounded, so the cache evicts oldest-first
    /// beyond this capacity.
    pub join_cache_capacity: usize,
    /// Work budget of the best-first configuration search: the maximum
    /// number of candidate-tuple evaluations (complete configurations
    /// scored plus prefixes bound-checked) one `MAPKEYWORDS` call may
    /// spend.  The search is **exact** — identical to exhaustively scoring
    /// the whole cartesian product — whenever it completes within the
    /// budget; when the budget runs out it returns the best configurations
    /// found so far and raises the `search_budget_exhausted` flag in its
    /// [`SearchStats`](crate::SearchStats) (surfaced through explanations
    /// and service metrics) instead of truncating silently.  The search
    /// completes its first depth-first dive before honouring exhaustion,
    /// so even a starved budget yields at least one ranked configuration.
    pub search_budget: usize,
}

impl Default for TemplarConfig {
    fn default() -> Self {
        TemplarConfig {
            kappa: 5,
            lambda: 0.8,
            obscurity: Obscurity::NoConstOp,
            use_log_joins: true,
            epsilon: 0.05,
            max_configurations: 16,
            join_candidates: 4,
            join_cache_capacity: 1024,
            search_budget: DEFAULT_SEARCH_BUDGET,
        }
    }
}

/// Default best-first search budget.  Far above what pruned candidate lists
/// produce on the paper's benchmarks (κ = 5 over a handful of keywords), so
/// ordinary requests always run to provable exactness, while a
/// pathological many-keyword request is hard-capped at
/// `O(budget · keywords)` work instead of enumerating an unbounded
/// cartesian product.
pub const DEFAULT_SEARCH_BUDGET: usize = 100_000;

impl TemplarConfig {
    /// The configuration used for the headline results of Table III
    /// (NoConstOp, κ = 5, λ = 0.8, log joins on).
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Set `κ`.
    pub fn with_kappa(mut self, kappa: usize) -> Self {
        self.kappa = kappa.max(1);
        self
    }

    /// Set `λ` (clamped to `[0, 1]`).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda.clamp(0.0, 1.0);
        self
    }

    /// Set the obscurity level.
    pub fn with_obscurity(mut self, obscurity: Obscurity) -> Self {
        self.obscurity = obscurity;
        self
    }

    /// Enable or disable log-driven join weights.
    pub fn with_log_joins(mut self, on: bool) -> Self {
        self.use_log_joins = on;
        self
    }

    /// Set the join-cache capacity (clamped to ≥ 1).
    pub fn with_join_cache_capacity(mut self, capacity: usize) -> Self {
        self.join_cache_capacity = capacity.max(1);
        self
    }

    /// Set the best-first search budget (clamped to ≥ 1).  Use
    /// `usize::MAX` for an effectively unbounded, always-exact search.
    pub fn with_search_budget(mut self, budget: usize) -> Self {
        self.search_budget = budget.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = TemplarConfig::paper_defaults();
        assert_eq!(c.kappa, 5);
        assert!((c.lambda - 0.8).abs() < 1e-12);
        assert_eq!(c.obscurity, Obscurity::NoConstOp);
        assert!(c.use_log_joins);
    }

    #[test]
    fn builder_methods_clamp_inputs() {
        let c = TemplarConfig::default().with_kappa(0).with_lambda(2.0);
        assert_eq!(c.kappa, 1);
        assert_eq!(c.lambda, 1.0);
    }

    #[test]
    fn obscurity_names() {
        assert_eq!(Obscurity::Full.name(), "Full");
        assert_eq!(Obscurity::NoConstOp.name(), "NoConstOp");
        assert_eq!(Obscurity::ALL.len(), 3);
    }
}
