//! Translation requests.

use serde::{Deserialize, Serialize};
use templar_core::{Keyword, KeywordMetadata, TemplarConfig};

/// Per-request overrides of a tenant's Templar configuration.
///
/// Only the parameters that are safe to vary per request are exposed: the
/// λ-blend weight, whether join inference uses log-driven edge weights, and
/// how many candidates to return.  Structural parameters (obscurity, κ) stay
/// fixed with the tenant's snapshot — the QFG is built at one obscurity
/// level and cannot be reinterpreted per request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestOverrides {
    /// Override `λ` (must lie in `[0, 1]`; validated server-side).
    pub lambda: Option<f64>,
    /// Override whether join inference uses log-driven edge weights.
    pub use_log_joins: Option<bool>,
    /// Return at most this many ranked candidates (must be ≥ 1).
    pub top_k: Option<usize>,
}

impl RequestOverrides {
    /// True when no override is set.
    pub fn is_empty(&self) -> bool {
        self.lambda.is_none() && self.use_log_joins.is_none() && self.top_k.is_none()
    }

    /// Apply the overrides to a tenant's base configuration.
    pub fn apply(&self, base: &TemplarConfig) -> TemplarConfig {
        let mut config = base.clone();
        if let Some(lambda) = self.lambda {
            config.lambda = lambda;
        }
        if let Some(use_log_joins) = self.use_log_joins {
            config.use_log_joins = use_log_joins;
        }
        config
    }

    /// Validation errors, as a human-readable reason (None when valid).
    pub fn validate(&self) -> Option<String> {
        if let Some(lambda) = self.lambda {
            if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
                return Some(format!("lambda override {lambda} outside [0, 1]"));
            }
        }
        if let Some(0) = self.top_k {
            return Some("top_k override must be at least 1".to_string());
        }
        None
    }
}

/// A translation request: one NLQ parse, routed to one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranslateRequest {
    /// The tenant (database) this request targets.
    pub tenant: String,
    /// The natural-language question (informational; keyword extraction is
    /// the host NLIDB's job, per Section III-E).
    pub nlq: String,
    /// Keywords with their parser metadata (the `M_k` tuples).
    pub keywords: Vec<(Keyword, KeywordMetadata)>,
    /// Per-request configuration overrides.
    pub overrides: RequestOverrides,
    /// When true, the response carries a per-stage latency breakdown of
    /// this request ([`TranslateResponse::trace`](
    /// crate::TranslateResponse::trace)).  The server traces every request
    /// for its own histograms either way; this flag only controls whether
    /// the breakdown is shipped back.
    pub trace: bool,
    /// When true, the server skips its per-snapshot translation cache for
    /// this request — no lookup, no insert, no hit/miss accounting — and
    /// recomputes from the live snapshot.  The escape hatch for correctness
    /// tooling proving cached answers byte-identical to fresh ones.
    pub bypass_cache: bool,
}

impl TranslateRequest {
    /// A request with no overrides.
    pub fn new(
        tenant: impl Into<String>,
        nlq: impl Into<String>,
        keywords: Vec<(Keyword, KeywordMetadata)>,
    ) -> Self {
        TranslateRequest {
            tenant: tenant.into(),
            nlq: nlq.into(),
            keywords,
            overrides: RequestOverrides::default(),
            trace: false,
            bypass_cache: false,
        }
    }

    /// Request a per-stage latency breakdown in the response.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Skip the server's translation cache for this request.
    pub fn with_bypass_cache(mut self) -> Self {
        self.bypass_cache = true;
        self
    }

    /// Set a per-request λ override.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.overrides.lambda = Some(lambda);
        self
    }

    /// Set a per-request `use_log_joins` override.
    pub fn with_log_joins(mut self, on: bool) -> Self {
        self.overrides.use_log_joins = Some(on);
        self
    }

    /// Set a per-request top-k bound.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.overrides.top_k = Some(top_k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use templar_core::Keyword;

    #[test]
    fn overrides_apply_onto_a_base_config() {
        let base = TemplarConfig::default();
        let overrides = RequestOverrides {
            lambda: Some(0.25),
            use_log_joins: Some(false),
            top_k: Some(3),
        };
        let applied = overrides.apply(&base);
        assert_eq!(applied.lambda, 0.25);
        assert!(!applied.use_log_joins);
        // Structural parameters are untouched.
        assert_eq!(applied.obscurity, base.obscurity);
        assert_eq!(applied.kappa, base.kappa);
    }

    #[test]
    fn invalid_overrides_are_reported() {
        assert!(RequestOverrides {
            lambda: Some(1.5),
            ..Default::default()
        }
        .validate()
        .is_some());
        assert!(RequestOverrides {
            top_k: Some(0),
            ..Default::default()
        }
        .validate()
        .is_some());
        assert!(RequestOverrides::default().validate().is_none());
    }

    #[test]
    fn requests_round_trip_through_serde() {
        let req = TranslateRequest::new(
            "mas",
            "papers after 2000",
            vec![(Keyword::new("papers"), KeywordMetadata::select())],
        )
        .with_lambda(0.5)
        .with_top_k(2)
        .with_trace()
        .with_bypass_cache();
        assert!(req.trace);
        assert!(req.bypass_cache);
        let back: TranslateRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
    }
}
