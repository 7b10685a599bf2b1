//! Cross-crate integration tests for the typed, explainable, multi-tenant
//! translation API: the JSON line protocol routed through a two-tenant
//! [`TenantRegistry`], the `ApiError` taxonomy for every failure surface,
//! and the reproducibility of the Section IV λ-blend from each candidate's
//! `Explanation`.

use nlidb::translate_with_config;
use proptest::prelude::*;
use relational::{DataType, Database, Schema};
use sqlparse::BinOp;
use std::sync::Arc;
use std::time::Duration;
use templar_api::{
    decode_response, encode_request, ApiError, RequestBody, RequestEnvelope, ResponseBody,
    TranslateRequest, PROTOCOL_VERSION,
};
use templar_core::{Keyword, KeywordMetadata, QueryLog, Templar, TemplarConfig, TemplarError};
use templar_service::{RegistryClient, ServiceConfig, TemplarService, TenantRegistry};

/// Tolerance of the acceptance criterion: the blended score must equal the
/// λ-weighted sum of its `Explanation` components within this bound.
const TOLERANCE: f64 = 1e-9;

fn academic_db() -> Arc<Database> {
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
        vec![1.into(), "Query Processing".into(), 2003.into(), 1.into()],
    )
    .unwrap();
    db.insert(
        "publication",
        vec![2.into(), "Data Integration".into(), 1997.into(), 2.into()],
    )
    .unwrap();
    db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
    db.insert("journal", vec![2.into(), "TMC".into()]).unwrap();
    Arc::new(db)
}

fn store_db() -> Arc<Database> {
    let schema = Schema::builder("store")
        .relation(
            "product",
            &[
                ("prid", DataType::Integer),
                ("label", DataType::Text),
                ("price", DataType::Integer),
                ("vid", DataType::Integer),
            ],
            Some("prid"),
        )
        .relation(
            "vendor",
            &[("vid", DataType::Integer), ("brand", DataType::Text)],
            Some("vid"),
        )
        .foreign_key("product", "vid", "vendor", "vid")
        .build();
    let mut db = Database::new(schema);
    db.insert(
        "product",
        vec![1.into(), "Espresso Machine".into(), 420.into(), 1.into()],
    )
    .unwrap();
    db.insert(
        "product",
        vec![2.into(), "Filter Grinder".into(), 80.into(), 2.into()],
    )
    .unwrap();
    db.insert("vendor", vec![1.into(), "Gustatory".into()])
        .unwrap();
    db.insert("vendor", vec![2.into(), "Crema Labs".into()])
        .unwrap();
    Arc::new(db)
}

fn academic_log() -> QueryLog {
    QueryLog::from_sql([
        "SELECT p.title FROM publication p WHERE p.year > 1995",
        "SELECT p.title FROM publication p WHERE p.year > 2010",
        "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
    ])
    .0
}

fn store_log() -> QueryLog {
    QueryLog::from_sql([
        "SELECT pr.label FROM product pr WHERE pr.price > 100",
        "SELECT pr.label FROM product pr, vendor v WHERE v.brand = 'Gustatory' AND pr.vid = v.vid",
    ])
    .0
}

fn academic_keywords() -> Vec<(Keyword, KeywordMetadata)> {
    vec![
        (Keyword::new("papers"), KeywordMetadata::select()),
        (
            Keyword::new("after 2000"),
            KeywordMetadata::filter_with_op(BinOp::Gt),
        ),
    ]
}

fn store_keywords() -> Vec<(Keyword, KeywordMetadata)> {
    vec![
        (Keyword::new("products"), KeywordMetadata::select()),
        (
            Keyword::new("over 100"),
            KeywordMetadata::filter_with_op(BinOp::Gt),
        ),
    ]
}

/// A registry hosting the paper-style multi-tenant deployment: two
/// databases, each with its own service, log and snapshot cycle.
fn two_tenant_registry() -> TenantRegistry {
    let registry = TenantRegistry::new();
    registry.register(
        "academic",
        TemplarService::spawn(
            academic_db(),
            &academic_log(),
            TemplarConfig::paper_defaults(),
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    registry.register(
        "store",
        TemplarService::spawn(
            store_db(),
            &store_log(),
            TemplarConfig::paper_defaults(),
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    registry
}

/// The acceptance round-trip: a `TranslateRequest` serialized to the JSON
/// line protocol, routed through a two-tenant registry, returns a
/// `TranslateResponse` whose top candidate's blended score equals the
/// λ-weighted sum of its `Explanation` components (within 1e-9).
#[test]
fn protocol_round_trip_across_two_tenants() {
    let registry = two_tenant_registry();
    assert_eq!(registry.tenant_ids(), vec!["academic", "store"]);

    for (tenant, keywords, expected_fragment) in [
        ("academic", academic_keywords(), "publication"),
        ("store", store_keywords(), "product"),
    ] {
        let request = TranslateRequest::new(tenant, "demo", keywords);
        let line = encode_request(&RequestEnvelope::new(77, RequestBody::Translate(request)));
        let response_line = registry.handle_line(&line);

        let envelope = decode_response(&response_line).expect("response line decodes");
        assert_eq!(envelope.version, PROTOCOL_VERSION);
        assert_eq!(envelope.id, 77, "correlation id must be echoed");
        let ResponseBody::Translated(response) = envelope.into_result().expect("translates") else {
            panic!("expected a Translated body");
        };
        assert_eq!(response.tenant, tenant);
        let top = response.best().expect("at least one candidate");
        assert!(
            top.sql.to_lowercase().contains(expected_fragment),
            "tenant {tenant} answered from the wrong database: {}",
            top.sql
        );

        // The λ-blend of Section IV is reproducible from the response alone.
        let e = &top.explanation;
        let qfg = if e.qfg_pairs == 0 {
            e.log_popularity
        } else {
            e.dice_cooccurrence
        };
        let blended = e.lambda * e.sigma_score + (1.0 - e.lambda) * qfg;
        assert!(
            (blended - e.config_score).abs() < TOLERANCE,
            "blend not reproducible for {tenant}: {blended} vs {}",
            e.config_score
        );
        assert!((e.recompute_final() - top.score).abs() < TOLERANCE);
        assert!(e.is_consistent(TOLERANCE));
    }
}

#[test]
fn per_request_lambda_override_changes_the_blend_and_is_reported() {
    let registry = two_tenant_registry();
    let client = RegistryClient::new(&registry);

    let default_run = client
        .translate(TranslateRequest::new(
            "academic",
            "demo",
            academic_keywords(),
        ))
        .unwrap();
    let overridden = client
        .translate(
            TranslateRequest::new("academic", "demo", academic_keywords())
                .with_lambda(0.2)
                .with_top_k(1),
        )
        .unwrap();

    assert_eq!(default_run.best().unwrap().explanation.lambda, 0.8);
    assert_eq!(overridden.best().unwrap().explanation.lambda, 0.2);
    assert_eq!(overridden.candidates.len(), 1, "top_k bounds the response");
    assert!(overridden
        .best()
        .unwrap()
        .explanation
        .is_consistent(TOLERANCE));
}

#[test]
fn unknown_tenant_is_a_typed_error() {
    let registry = two_tenant_registry();
    let client = RegistryClient::new(&registry);
    let err = client
        .translate(TranslateRequest::new(
            "warehouse",
            "demo",
            academic_keywords(),
        ))
        .unwrap_err();
    assert_eq!(
        err,
        ApiError::UnknownTenant {
            tenant: "warehouse".to_string()
        }
    );
}

#[test]
fn metrics_flow_over_the_wire_per_tenant() {
    let registry = two_tenant_registry();
    let client = RegistryClient::new(&registry);

    // Serve one translation and feed one malformed + one good SQL line, so
    // the counters have something to show.
    client
        .translate(TranslateRequest::new(
            "academic",
            "papers after 2000",
            academic_keywords(),
        ))
        .unwrap();
    client
        .submit_sql("academic", "SELECT j.name FROM journal j")
        .unwrap();
    registry.get("academic").unwrap().flush();

    let academic = client.metrics("academic").unwrap();
    assert_eq!(academic.translations_served, 1);
    assert_eq!(academic.ingest_applied, 1);
    assert!(academic.qfg_queries >= 1);
    // The columnar data plane is visible over the wire: a published
    // snapshot is compacted (no pending deltas) and the CSR carries every
    // live edge.
    assert_eq!(academic.qfg_pending_deltas, 0);
    assert_eq!(academic.qfg_csr_edges, academic.qfg_edges);
    assert_eq!(academic.qfg_interned_fragments, academic.qfg_fragments);
    assert!(academic.qfg_compactions >= 1);

    // Tenants do not bleed into each other.
    let store = client.metrics("store").unwrap();
    assert_eq!(store.translations_served, 0);

    // Unknown tenants surface the usual typed error.
    assert_eq!(
        client.metrics("warehouse").unwrap_err(),
        ApiError::UnknownTenant {
            tenant: "warehouse".to_string()
        }
    );
}

/// The learning loop closes through the wire: a client reports accepted SQL
/// with a `Feedback` request, the entry rides the same ingest path as
/// `SubmitSql`, sharpens subsequent translations, and is counted separately
/// in the tenant's metrics.
#[test]
fn feedback_closes_the_learning_loop_over_the_wire() {
    let registry = two_tenant_registry();
    let client = RegistryClient::new(&registry);

    client
        .feedback(
            "academic",
            "SELECT p.title FROM publication p WHERE p.year > 1995",
        )
        .unwrap();
    client
        .submit_sql("academic", "SELECT j.name FROM journal j")
        .unwrap();
    registry.get("academic").unwrap().flush();

    let metrics = client.metrics("academic").unwrap();
    assert_eq!(metrics.feedback_accepted, 1, "feedback counted separately");
    assert_eq!(
        metrics.ingest_applied, 2,
        "feedback and plain submissions share the ingest path"
    );
    assert!(metrics.qfg_queries >= 2);

    // Unknown tenants surface the usual typed error.
    assert_eq!(
        client.feedback("warehouse", "SELECT 1 FROM t").unwrap_err(),
        ApiError::UnknownTenant {
            tenant: "warehouse".to_string()
        }
    );
}

#[test]
fn version_mismatched_and_malformed_envelopes_are_rejected() {
    let registry = two_tenant_registry();

    let wrong_version = r#"{"version": 1, "id": 5, "body": {"SubmitSql": {"tenant": "academic", "sql": "SELECT j.name FROM journal j"}}}"#;
    let envelope = decode_response(&registry.handle_line(wrong_version)).unwrap();
    assert_eq!(
        envelope.into_result(),
        Err(ApiError::VersionMismatch {
            expected: PROTOCOL_VERSION,
            found: 1
        })
    );

    let envelope = decode_response(&registry.handle_line("{ not json")).unwrap();
    assert!(matches!(
        envelope.into_result(),
        Err(ApiError::MalformedEnvelope { .. })
    ));

    let bad_body = r#"{"version": 5, "id": 9, "body": {"Nonsense": true}}"#;
    let envelope = decode_response(&registry.handle_line(bad_body)).unwrap();
    assert_eq!(envelope.id, 9, "recoverable ids are echoed on errors");
    assert!(matches!(
        envelope.into_result(),
        Err(ApiError::MalformedEnvelope { .. })
    ));
}

#[test]
fn invalid_overrides_are_rejected_before_translation() {
    let registry = two_tenant_registry();
    let client = RegistryClient::new(&registry);
    let err = client
        .translate(TranslateRequest::new("academic", "demo", academic_keywords()).with_lambda(3.0))
        .unwrap_err();
    assert!(
        matches!(err, ApiError::InvalidRequest { .. }),
        "got {err:?}"
    );

    let err = client
        .translate(TranslateRequest::new("academic", "demo", vec![]))
        .unwrap_err();
    assert!(
        matches!(err, ApiError::InvalidRequest { .. }),
        "got {err:?}"
    );
}

#[test]
fn queue_full_backpressure_reaches_the_wire_as_a_typed_error() {
    let registry = TenantRegistry::new();
    registry.register(
        "academic",
        TemplarService::spawn(
            academic_db(),
            &QueryLog::new(),
            TemplarConfig::paper_defaults(),
            // A one-slot queue and a sleepy worker: sustained submission must
            // observe QueueFull, which the API maps to Backpressure.
            ServiceConfig::default()
                .with_queue_capacity(1)
                .with_refresh_interval(Duration::from_millis(50)),
        )
        .unwrap(),
    );
    let client = RegistryClient::new(&registry);

    let mut backpressure = None;
    for _ in 0..100_000 {
        match client.submit_sql("academic", "SELECT j.name FROM journal j") {
            Ok(()) => continue,
            Err(err) => {
                backpressure = Some(err);
                break;
            }
        }
    }
    assert_eq!(
        backpressure,
        Some(ApiError::Backpressure),
        "a one-slot queue under sustained submission must exert backpressure"
    );
}

#[test]
fn obscurity_mismatch_is_an_err_not_a_panic() {
    // The old construction path asserted; the typed path returns the
    // mismatch as a value that projects onto the wire taxonomy.
    let config = TemplarConfig::paper_defaults(); // NoConstOp
    let qfg =
        templar_core::QueryFragmentGraph::build(&academic_log(), templar_core::Obscurity::Full);
    let result = Templar::from_parts(
        academic_db(),
        qfg,
        nlp::TextSimilarity::new(),
        config.clone(),
    );
    let Err(err) = result else {
        panic!("mismatched obscurity must be rejected");
    };
    assert_eq!(
        err,
        TemplarError::ObscurityMismatch {
            expected: templar_core::Obscurity::NoConstOp,
            found: templar_core::Obscurity::Full,
        }
    );
    let api: ApiError = err.into();
    assert!(matches!(api, ApiError::Construction { .. }));
}

proptest! {
    /// Explanation-consistency property: for any λ and any log-joins
    /// setting, every candidate's blended score is recomputable from its
    /// `Explanation` components within 1e-9.
    #[test]
    fn explanations_recompute_under_arbitrary_overrides(
        lambda_steps in 0u32..101,
        use_log_joins in proptest::any::<bool>(),
        keyword_pick in 0usize..3,
    ) {
        let lambda = f64::from(lambda_steps) / 100.0;
        let templar = Templar::new(
            academic_db(),
            &academic_log(),
            TemplarConfig::paper_defaults(),
        )
        .unwrap();
        let keywords = match keyword_pick {
            0 => academic_keywords(),
            1 => vec![(Keyword::new("papers"), KeywordMetadata::select())],
            _ => vec![
                (Keyword::new("papers"), KeywordMetadata::select()),
                (Keyword::new("TKDE"), KeywordMetadata::filter()),
            ],
        };
        let config = TemplarConfig::paper_defaults()
            .with_lambda(lambda)
            .with_log_joins(use_log_joins);
        let ranked = translate_with_config(&templar, &keywords, &config).unwrap();
        prop_assert!(!ranked.is_empty());
        for r in &ranked {
            prop_assert!((r.explanation.lambda - lambda).abs() < 1e-12);
            prop_assert!(
                r.explanation.is_consistent(TOLERANCE),
                "inconsistent explanation at lambda={lambda}: {:?}",
                r.explanation
            );
            prop_assert!((r.explanation.recompute_final() - r.score).abs() < TOLERANCE);
        }
    }
}

/// The observability acceptance round-trip: a traced MAS-style translation
/// over the wire returns a per-stage breakdown whose stage durations sum to
/// within the measured end-to-end latency, the slow-query ring captures the
/// request, and the Prometheus exposition parses as text format.
#[test]
fn traced_translation_slow_queries_and_prometheus_over_the_wire() {
    let registry = two_tenant_registry();
    let client = RegistryClient::new(&registry);

    // An untraced request ships no breakdown.
    let plain = client
        .translate(TranslateRequest::new(
            "academic",
            "papers after 2000",
            academic_keywords(),
        ))
        .unwrap();
    assert!(plain.trace.is_none());

    // A traced request ships the per-stage breakdown.  The repeat question
    // bypasses the translation cache so the trace covers a real computation
    // (a cache-served repeat ships a minimal, `cache_hit`-marked trace).
    let traced = client
        .translate(
            TranslateRequest::new("academic", "papers after 2000", academic_keywords())
                .with_trace()
                .with_bypass_cache(),
        )
        .unwrap();
    assert_eq!(
        traced.candidates, plain.candidates,
        "tracing must not change results"
    );
    let report = traced.trace.expect("requested trace must be present");
    let breakdown = &report.breakdown;
    assert!(breakdown.total_nanos > 0);
    assert!(
        breakdown.stage_sum_nanos() <= breakdown.total_nanos,
        "stage sum {} must fit inside the end-to-end total {}",
        breakdown.stage_sum_nanos(),
        breakdown.total_nanos
    );
    assert_eq!(breakdown.stages.len(), templar_core::STAGE_COUNT);
    assert!(breakdown.stages.iter().all(|s| s.calls > 0));
    assert!(report.search.tuples_scored > 0);

    // Both requests were traced server-side: the slow-query ring holds them.
    let slow = client.slow_queries("academic").unwrap();
    assert_eq!(slow.len(), 2);
    assert!(slow[0].total_us >= slow[1].total_us, "slowest first");
    assert!(slow
        .iter()
        .all(|s| s.question == "papers after 2000" && s.ok));
    assert!(slow
        .iter()
        .all(|s| s.trace.stage_sum_nanos() <= s.trace.total_nanos));

    // Per-tenant exposition carries the stage histograms.
    let text = client.prometheus(Some("academic")).unwrap();
    assert!(text.contains("templar_translations_total{tenant=\"academic\"} 2"));
    assert!(text.contains("# TYPE templar_stage_latency_microseconds histogram"));
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        value.parse::<u64>().expect("sample values are integers");
    }

    // The all-tenant exposition declares each family once, samples both.
    let all = client.prometheus(None).unwrap();
    assert_eq!(
        all.matches("# TYPE templar_translations_total counter")
            .count(),
        1
    );
    assert!(all.contains("tenant=\"academic\""));
    assert!(all.contains("tenant=\"store\""));

    // Unknown tenants still surface as typed errors.
    assert!(matches!(
        client.slow_queries("nope"),
        Err(ApiError::UnknownTenant { .. })
    ));
}
