//! **templar-api**: the versioned, typed, explainable translation API.
//!
//! The paper's contract with host NLIDBs is exactly two library calls
//! (`MAPKEYWORDS`, `INFERJOINS`).  A production deployment serving many
//! databases needs a *request/response* boundary on top of them:
//!
//! * [`request::TranslateRequest`] — an NLQ parse plus the tenant it targets
//!   and per-request overrides for λ, `use_log_joins` and top-k,
//! * [`response::TranslateResponse`] — ranked SQL where every candidate
//!   carries an [`nlidb::Explanation`] decomposing its score into the
//!   word-similarity, log-popularity and co-occurrence/Dice components of
//!   Section IV's λ-blend, and its join path into schema distance versus
//!   log-evidence weight — the blend is reproducible from the response,
//! * [`error::ApiError`] — the one error taxonomy wire clients see, with
//!   every failure mode as structured data (no `Debug`-string leakage),
//! * [`protocol`] — the JSON line protocol: versioned request/response
//!   envelopes, rejected on protocol-version mismatch.
//!
//! The crate deliberately contains no serving machinery: `templar-service`
//! implements the routing (`templar_service::TenantRegistry`) against these
//! types.

pub mod binary;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod request;
pub mod response;

pub use binary::{CodecError, WireCodec, HANDSHAKE_LEN, HANDSHAKE_MAGIC, MAX_FRAME_BYTES};
pub use error::{ApiError, SnapshotRejection};
pub use metrics::{
    HealthReport, HistogramBucket, MetricsReport, SlowQueryReport, StageLatencyReport,
};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, RequestBody, RequestEnvelope,
    ResponseBody, ResponseEnvelope, PROTOCOL_VERSION,
};
pub use request::{RequestOverrides, TranslateRequest};
pub use response::{SqlCandidate, TraceReport, TranslateResponse};
