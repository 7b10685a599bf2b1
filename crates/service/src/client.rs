//! An in-process client for the JSON line protocol.
//!
//! [`RegistryClient`] speaks to a [`TenantRegistry`] *through the wire
//! encoding*: every call serializes a request envelope, hands the line to
//! the registry, and decodes the response line.  In-process it exists so
//! examples and tests exercise exactly the bytes a remote client would send;
//! a socket transport only needs to replace the `handle_line` hop.

use crate::registry::TenantRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use templar_api::{
    decode_response, encode_request, ApiError, HealthReport, MetricsReport, RequestBody,
    RequestEnvelope, ResponseBody, SlowQueryReport, TranslateRequest, TranslateResponse,
};

/// A typed client over the line protocol, bound to one registry.
pub struct RegistryClient<'a> {
    registry: &'a TenantRegistry,
    next_id: AtomicU64,
}

impl<'a> RegistryClient<'a> {
    /// A client with correlation ids starting at 1.
    pub fn new(registry: &'a TenantRegistry) -> Self {
        RegistryClient {
            registry,
            next_id: AtomicU64::new(1),
        }
    }

    fn roundtrip(&self, body: RequestBody) -> Result<ResponseBody, ApiError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let line = encode_request(&RequestEnvelope::new(id, body));
        let response_line = self.registry.handle_line(&line);
        let envelope = decode_response(&response_line)?;
        debug_assert!(
            envelope.id == id || envelope.id == 0,
            "response correlation id must echo the request"
        );
        envelope.into_result()
    }

    /// Translate one request, through the wire encoding and back.
    pub fn translate(&self, request: TranslateRequest) -> Result<TranslateResponse, ApiError> {
        match self.roundtrip(RequestBody::Translate(request))? {
            ResponseBody::Translated(response) => Ok(response),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Translate: {other:?}"),
            }),
        }
    }

    /// Submit answered SQL to a tenant's log.
    pub fn submit_sql(&self, tenant: &str, sql: &str) -> Result<(), ApiError> {
        match self.roundtrip(RequestBody::SubmitSql {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        })? {
            ResponseBody::SqlAccepted => Ok(()),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for SubmitSql: {other:?}"),
            }),
        }
    }

    /// Report accepted SQL back to a tenant — the client's half of the
    /// learning loop.  The entry rides the same durable ingest path as
    /// [`RegistryClient::submit_sql`] and is counted under
    /// `feedback_accepted` in the tenant's metrics.
    pub fn feedback(&self, tenant: &str, sql: &str) -> Result<(), ApiError> {
        match self.roundtrip(RequestBody::Feedback {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        })? {
            ResponseBody::FeedbackAccepted => Ok(()),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Feedback: {other:?}"),
            }),
        }
    }

    /// Fetch a tenant's health report.  Health is exempt from admission
    /// control and never refused in degraded mode — it is the request an
    /// operator's probe sends to find out *why* writes are bouncing.
    pub fn health(&self, tenant: &str) -> Result<HealthReport, ApiError> {
        match self.roundtrip(RequestBody::Health {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::Health(report) => Ok(report),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Health: {other:?}"),
            }),
        }
    }

    /// Fetch a tenant's serving metrics.
    pub fn metrics(&self, tenant: &str) -> Result<MetricsReport, ApiError> {
        match self.roundtrip(RequestBody::Metrics {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::Metrics(report) => Ok(*report),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Metrics: {other:?}"),
            }),
        }
    }

    /// Fetch a tenant's captured slow queries, slowest first.
    pub fn slow_queries(&self, tenant: &str) -> Result<Vec<SlowQueryReport>, ApiError> {
        match self.roundtrip(RequestBody::SlowQueries {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::SlowQueries(reports) => Ok(reports),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for SlowQueries: {other:?}"),
            }),
        }
    }

    /// Fetch metrics in Prometheus text exposition format — one tenant, or
    /// every registered tenant when `tenant` is `None`.
    pub fn prometheus(&self, tenant: Option<&str>) -> Result<String, ApiError> {
        match self.roundtrip(RequestBody::Prometheus {
            tenant: tenant.map(str::to_string),
        })? {
            ResponseBody::Prometheus(text) => Ok(text),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Prometheus: {other:?}"),
            }),
        }
    }
}
