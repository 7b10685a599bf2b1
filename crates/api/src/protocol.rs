//! The JSON line protocol.
//!
//! One request or response per line, each wrapped in an envelope that
//! carries the protocol version and a client-chosen correlation id:
//!
//! ```text
//! {"version": 5, "id": 7, "body": {"Translate": {...}}}     → request
//! {"version": 5, "id": 7, "ok": {...}, "err": null}          → response
//! ```
//!
//! The version field is checked *before* the body is decoded: an envelope
//! from a different protocol generation is rejected with
//! [`ApiError::VersionMismatch`] without attempting to interpret its body.
//! Anything that fails to parse at all is [`ApiError::MalformedEnvelope`].

use crate::error::ApiError;
use crate::metrics::{HealthReport, MetricsReport, SlowQueryReport};
use crate::request::TranslateRequest;
use crate::response::TranslateResponse;
use serde::{Deserialize, Serialize, Value};

/// The protocol generation this build speaks.
///
/// v5 (degraded serving): the `Health` operation was added (answered even
/// under admission overload, like the other observability reads) with its
/// `HealthReport` payload; `ApiError` gained the `Degraded` variant —
/// returned for `SubmitSql`/`Feedback` when the tenant's durable journal
/// is failing and the service is read-only; and `MetricsReport` gained the
/// health/durability fields (`health_state`, `degraded_entries_total`,
/// `journal_retries_total`, `journal_heals_total`, `wal_last_errno`).
///
/// v4 (translation cache): `TranslateRequest` gained its `bypass_cache`
/// flag (force a recompute past the server's per-snapshot translation
/// cache — correctness tooling's escape hatch), `TraceReport` and
/// `SlowQueryReport` gained the `cache_hit` marker so operators never
/// chase phantom latencies on cached answers, and `MetricsReport` gained
/// the translation-cache counters (hits / misses / evictions /
/// invalidations / entries) plus the word- and phrase-memo hit/miss
/// counters surfaced from the similarity model.
///
/// v3 (observability): `TranslateRequest` gained its `trace` flag and
/// `TranslateResponse` the matching optional per-stage breakdown;
/// `MetricsReport` gained the latency-histogram fields (`translate_sum_us`
/// / `translate_buckets` / `stage_latencies`); and the `SlowQueries` /
/// `Prometheus` operations were added.  As with v2 (search counters,
/// `search_budget_exhausted` explanations), the new fields are required on
/// decode, so mixed-generation peers are rejected by the version check
/// instead of failing mid-body.
pub const PROTOCOL_VERSION: u32 = 5;

/// Operations a client can request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Translate one NLQ parse against a tenant.
    Translate(TranslateRequest),
    /// Feed one answered query's SQL back into a tenant's log.
    SubmitSql {
        /// The tenant whose log grows.
        tenant: String,
        /// The SQL text to ingest.
        sql: String,
    },
    /// Close the learning loop: the client *accepted* this SQL (ran it, or
    /// a user approved the translation).  Rides the same durable ingest
    /// path as `SubmitSql` — journaled before it is applied on a durable
    /// tenant — and is counted separately (`feedback_accepted`), so the
    /// loop's close rate is observable.
    Feedback {
        /// The tenant whose log learns from the acceptance.
        tenant: String,
        /// The accepted SQL text.
        sql: String,
    },
    /// Fetch a tenant's serving metrics (latency, ingestion, durability and
    /// columnar data-plane gauges).
    Metrics {
        /// The tenant whose metrics are requested.
        tenant: String,
    },
    /// Fetch a tenant's captured slow queries: the slowest translations
    /// served so far, each with its per-stage latency breakdown.
    SlowQueries {
        /// The tenant whose slow-query ring is read.
        tenant: String,
    },
    /// Fetch metrics in Prometheus text exposition format — one tenant, or
    /// every registered tenant assembled into a single exposition.
    Prometheus {
        /// The tenant to expose, or `None` for all tenants.
        tenant: Option<String>,
    },
    /// Fetch a tenant's write-availability state (healthy vs degraded
    /// read-only).  Exempt from admission control so the question "is this
    /// tenant taking writes?" is answerable during an overload.
    Health {
        /// The tenant whose health is requested.
        tenant: String,
    },
}

impl RequestBody {
    /// The tenant this operation targets, when it names exactly one.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            RequestBody::Translate(request) => Some(&request.tenant),
            RequestBody::SubmitSql { tenant, .. }
            | RequestBody::Feedback { tenant, .. }
            | RequestBody::Metrics { tenant }
            | RequestBody::SlowQueries { tenant }
            | RequestBody::Health { tenant } => Some(tenant),
            RequestBody::Prometheus { tenant } => tenant.as_deref(),
        }
    }

    /// Whether the operation consumes tenant work capacity and therefore
    /// passes through admission control.  Observability reads (metrics,
    /// slow queries, Prometheus scrapes) are exempt: an operator must be
    /// able to see an overloaded tenant's counters *during* the overload.
    pub fn is_admission_controlled(&self) -> bool {
        matches!(
            self,
            RequestBody::Translate(_)
                | RequestBody::SubmitSql { .. }
                | RequestBody::Feedback { .. }
        )
    }
}

/// Success payloads, mirroring [`RequestBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// The ranked, explained translations.
    Translated(TranslateResponse),
    /// The SQL was accepted into the tenant's ingestion queue.
    SqlAccepted,
    /// The feedback was accepted into the tenant's ingestion queue.
    FeedbackAccepted,
    /// The tenant's point-in-time metrics (boxed: the report is an order of
    /// magnitude larger than the other variants, and every response would
    /// otherwise pay its stack size).
    Metrics(Box<MetricsReport>),
    /// The tenant's captured slow queries, slowest first.
    SlowQueries(Vec<SlowQueryReport>),
    /// A Prometheus text-format exposition of the requested tenants.
    Prometheus(String),
    /// The tenant's write-availability state.
    Health(HealthReport),
}

/// A versioned request envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The requested operation.
    pub body: RequestBody,
}

impl RequestEnvelope {
    /// Wrap a body at the current protocol version.
    pub fn new(id: u64, body: RequestBody) -> Self {
        RequestEnvelope {
            version: PROTOCOL_VERSION,
            id,
            body,
        }
    }
}

/// A versioned response envelope.  Exactly one of `ok` / `err` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The correlation id of the request this responds to (0 when the
    /// request was too malformed to carry one).
    pub id: u64,
    /// The success payload.
    pub ok: Option<ResponseBody>,
    /// The failure payload.
    pub err: Option<ApiError>,
}

impl ResponseEnvelope {
    /// A success response.
    pub fn success(id: u64, body: ResponseBody) -> Self {
        ResponseEnvelope {
            version: PROTOCOL_VERSION,
            id,
            ok: Some(body),
            err: None,
        }
    }

    /// A failure response.
    pub fn failure(id: u64, err: ApiError) -> Self {
        ResponseEnvelope {
            version: PROTOCOL_VERSION,
            id,
            ok: None,
            err: Some(err),
        }
    }

    /// Collapse the envelope into a `Result`.
    pub fn into_result(self) -> Result<ResponseBody, ApiError> {
        match (self.ok, self.err) {
            (Some(body), None) => Ok(body),
            (None, Some(err)) => Err(err),
            _ => Err(ApiError::MalformedEnvelope {
                detail: "response must set exactly one of ok/err".to_string(),
            }),
        }
    }
}

/// Serialize a request envelope to one protocol line (no trailing newline).
pub fn encode_request(envelope: &RequestEnvelope) -> String {
    serde_json::to_string(envelope).expect("request envelopes always serialize")
}

/// Serialize a response envelope to one protocol line (no trailing newline).
pub fn encode_response(envelope: &ResponseEnvelope) -> String {
    serde_json::to_string(envelope).expect("response envelopes always serialize")
}

/// Check an already-parsed envelope value's version field before decoding
/// the rest: mismatched generations are rejected without interpreting the
/// body, and the correlation id is recovered when present so the error
/// response can still be matched to its request.
fn check_version(value: &Value) -> Result<u64, (u64, ApiError)> {
    let entries = value.as_map().ok_or((
        0,
        ApiError::MalformedEnvelope {
            detail: "envelope must be a JSON object".to_string(),
        },
    ))?;
    let id = entries
        .iter()
        .find(|(k, _)| k == "id")
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or(0);
    let version = entries
        .iter()
        .find(|(k, _)| k == "version")
        .and_then(|(_, v)| v.as_u64())
        .ok_or((
            id,
            ApiError::MalformedEnvelope {
                detail: "envelope is missing its version field".to_string(),
            },
        ))?;
    if version != u64::from(PROTOCOL_VERSION) {
        return Err((
            id,
            ApiError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: u32::try_from(version).unwrap_or(u32::MAX),
            },
        ));
    }
    Ok(id)
}

/// Parse one request line.  Returns the typed envelope, or the error to send
/// back (which echoes the line's correlation id when it could be recovered).
pub fn decode_request(line: &str) -> Result<RequestEnvelope, (u64, ApiError)> {
    let value = serde_json::parse_value(line.trim()).map_err(|e| {
        (
            0,
            ApiError::MalformedEnvelope {
                detail: e.to_string(),
            },
        )
    })?;
    let id = check_version(&value)?;
    RequestEnvelope::from_value(&value).map_err(|e| {
        (
            id,
            ApiError::MalformedEnvelope {
                detail: e.to_string(),
            },
        )
    })
}

/// Parse one response line.
pub fn decode_response(line: &str) -> Result<ResponseEnvelope, ApiError> {
    let value = serde_json::parse_value(line.trim()).map_err(|e| ApiError::MalformedEnvelope {
        detail: e.to_string(),
    })?;
    check_version(&value).map_err(|(_, e)| e)?;
    ResponseEnvelope::from_value(&value).map_err(|e| ApiError::MalformedEnvelope {
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use templar_core::{Keyword, KeywordMetadata};

    fn translate_request() -> TranslateRequest {
        TranslateRequest::new(
            "mas",
            "papers after 2000",
            vec![(Keyword::new("papers"), KeywordMetadata::select())],
        )
        .with_lambda(0.4)
    }

    #[test]
    fn request_envelopes_round_trip() {
        let envelope = RequestEnvelope::new(42, RequestBody::Translate(translate_request()));
        let line = encode_request(&envelope);
        assert!(!line.contains('\n'), "a protocol line must be one line");
        let back = decode_request(&line).unwrap();
        assert_eq!(back, envelope);
    }

    #[test]
    fn submit_sql_round_trips() {
        let envelope = RequestEnvelope::new(
            7,
            RequestBody::SubmitSql {
                tenant: "yelp".into(),
                sql: "SELECT b.name FROM business b".into(),
            },
        );
        let back = decode_request(&encode_request(&envelope)).unwrap();
        assert_eq!(back, envelope);
    }

    #[test]
    fn feedback_round_trips() {
        let envelope = RequestEnvelope::new(
            8,
            RequestBody::Feedback {
                tenant: "mas".into(),
                sql: "SELECT p.title FROM publication p WHERE p.year > 2000".into(),
            },
        );
        let back = decode_request(&encode_request(&envelope)).unwrap();
        assert_eq!(back, envelope);
        let response = ResponseEnvelope::success(8, ResponseBody::FeedbackAccepted);
        assert_eq!(
            decode_response(&encode_response(&response)).unwrap(),
            response
        );
    }

    #[test]
    fn metrics_bodies_round_trip() {
        let request = RequestEnvelope::new(
            9,
            RequestBody::Metrics {
                tenant: "mas".into(),
            },
        );
        assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        let report = MetricsReport {
            translations_served: 12,
            qfg_interned_fragments: 99,
            qfg_csr_edges: 41,
            log_skipped_statements: 1,
            ..MetricsReport::default()
        };
        let response = ResponseEnvelope::success(9, ResponseBody::Metrics(Box::new(report)));
        let line = encode_response(&response);
        assert_eq!(decode_response(&line).unwrap(), response);
    }

    #[test]
    fn version_mismatch_is_rejected_before_the_body_is_read() {
        // Body is garbage that would fail decoding — the version gate fires
        // first, so the client learns the real problem.
        let line = r#"{"version": 99, "id": 3, "body": {"Nonsense": 1}}"#;
        match decode_request(line) {
            Err((id, ApiError::VersionMismatch { expected, found })) => {
                assert_eq!(id, 3, "the correlation id must survive the rejection");
                assert_eq!(expected, PROTOCOL_VERSION);
                assert_eq!(found, 99);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn slow_query_and_prometheus_bodies_round_trip() {
        let request = RequestEnvelope::new(
            10,
            RequestBody::SlowQueries {
                tenant: "mas".into(),
            },
        );
        assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        for tenant in [None, Some("mas".to_string())] {
            let request = RequestEnvelope::new(11, RequestBody::Prometheus { tenant });
            assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        }
        let response = ResponseEnvelope::success(
            11,
            ResponseBody::Prometheus("# TYPE templar_translations_total counter\n".into()),
        );
        assert_eq!(
            decode_response(&encode_response(&response)).unwrap(),
            response
        );
    }

    #[test]
    fn health_bodies_round_trip() {
        let request = RequestEnvelope::new(
            12,
            RequestBody::Health {
                tenant: "mas".into(),
            },
        );
        assert!(
            !request.body.is_admission_controlled(),
            "health must be answerable during an overload"
        );
        assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        let response = ResponseEnvelope::success(
            12,
            ResponseBody::Health(HealthReport {
                state: "degraded".into(),
                health_state: 1,
                degraded_entries_total: 3,
                journal_retries_total: 7,
                journal_heals_total: 1,
                wal_io_errors: 2,
                wal_last_errno: 29, // ENOSPC (28) + 1
            }),
        );
        assert_eq!(
            decode_response(&encode_response(&response)).unwrap(),
            response
        );
        let failure = ResponseEnvelope::failure(13, ApiError::Degraded);
        assert_eq!(
            decode_response(&encode_response(&failure)).unwrap(),
            failure
        );
    }

    #[test]
    fn malformed_lines_recover_the_correlation_id_when_present() {
        let line = r#"{"version": 5, "id": 11, "body": {"Nonsense": 1}}"#;
        match decode_request(line) {
            Err((id, ApiError::MalformedEnvelope { .. })) => assert_eq!(id, 11),
            other => panic!("expected MalformedEnvelope with id, got {other:?}"),
        }
        assert!(matches!(
            decode_request("this is not json"),
            Err((0, ApiError::MalformedEnvelope { .. }))
        ));
    }

    #[test]
    fn response_envelopes_round_trip_both_arms() {
        let ok = ResponseEnvelope::success(5, ResponseBody::SqlAccepted);
        assert_eq!(decode_response(&encode_response(&ok)).unwrap(), ok);
        let err = ResponseEnvelope::failure(6, ApiError::Backpressure);
        let back = decode_response(&encode_response(&err)).unwrap();
        assert_eq!(back, err);
        assert_eq!(back.into_result(), Err(ApiError::Backpressure));
    }
}
